package wire

import (
	"bufio"
	"io"
	"testing"
)

// benchQuery is a representative scatter-path query: trace tail and the
// global-stats tail populated, as the router ships them.
func benchQuery() *Query {
	return &Query{
		ID: "q-000123", From: "router", Text: "byzantine gold ring provenance",
		Concept: []float64{0.1, -0.4, 0.9, 0.3}, TopK: 10, TTL: 2,
		Want:    QoSTerms{Price: 1, LatencyMs: 50, Completeness: 0.9, FreshnessSec: 300, Trust: 0.7},
		TraceID: 0x1234, SpanID: 0x56,
		GlobalDocs: 131072,
		StatsTerms: []string{"byzantine", "gold", "ring", "provenance"},
		StatsDF:    []uint64{31, 512, 498, 12},
	}
}

// BenchmarkFrameEncode measures the zero-alloc staging path: one query
// frame appended to a warm buffer (BeginFrame + AppendTo + EndFrame).
func BenchmarkFrameEncode(b *testing.B) {
	q := benchQuery()
	buf := AppendFrame(nil, KindQuery, q) // warm to high-water size
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], KindQuery, q)
	}
}

// repeatReader serves the same encoded bytes forever, so decode
// benchmarks stream frames without per-iteration reader resets.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

var _ io.Reader = (*repeatReader)(nil)

// BenchmarkFrameDecode measures the pooled streaming read path: header
// scratch and payload buffer both live in the FrameReader.
func BenchmarkFrameDecode(b *testing.B) {
	frame := AppendFrame(nil, KindQuery, benchQuery())
	fr := NewFrameReader(bufio.NewReaderSize(&repeatReader{data: frame}, 4096))
	if _, err := fr.Next(); err != nil { // warm the payload buffer
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fr.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryUnmarshal isolates message decode on top of a pooled
// payload: what the demux loop pays after FrameReader.Next.
func BenchmarkQueryUnmarshal(b *testing.B) {
	payload := benchQuery().AppendTo(nil)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalQuery(payload); err != nil {
			b.Fatal(err)
		}
	}
}

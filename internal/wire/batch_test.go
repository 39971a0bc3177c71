package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
)

// hotMessages returns one richly populated instance of every hot message,
// paired with its kind, so the identity tests sweep the whole AppendTo
// surface.
func hotMessages() []struct {
	kind Kind
	msg  Appender
} {
	return []struct {
		kind Kind
		msg  Appender
	}{
		{KindGossip, &Gossip{From: "n1", Peers: []string{"a 1.2.3.4:9", "b 5.6.7.8:9 0-100"}}},
		{KindQuery, &Query{
			ID: "q42", From: "iris", Text: "byzantine gold ring",
			Concept: []float64{0.25, -1, 3.5}, TopK: 10, TTL: 3,
			Want:    QoSTerms{Price: 1.5, LatencyMs: 20, Completeness: 0.9, FreshnessSec: 60, Trust: 0.8, Premium: 0.1, PenaltyRate: 0.05},
			TraceID: 0xdeadbeef, SpanID: 0xfeed,
			GlobalDocs: 131072, StatsTerms: []string{"gold", "ring"}, StatsDF: []uint64{512, 31},
		}},
		{KindQueryResult, &QueryResult{
			QueryID: "q42", From: "museum",
			Items: []ResultItem{
				{DocID: "d1", Source: "museum", Score: 3.25, Snippet: "a gold ring"},
				{DocID: "d2", Source: "museum", Score: 1.125, Snippet: "another"},
			},
			Elapsed: 0.004, TraceID: 7, Epoch: 9,
		}},
	}
}

// legacyMarshal reproduces the pre-AppendTo Writer-based encoding for each
// hot message, so the identity test pins today's bytes against the
// original wire format rather than against AppendTo itself.
func legacyMarshal(m Appender) []byte {
	w := NewWriter(128)
	switch x := m.(type) {
	case *Gossip:
		w.String(x.From)
		w.Strings(x.Peers)
	case *Query:
		w.String(x.ID)
		w.String(x.From)
		w.String(x.Text)
		w.F64s(x.Concept)
		w.U32(x.TopK)
		w.U32(x.TTL)
		x.Want.encode(w)
		w.U64(x.TraceID)
		w.U64(x.SpanID)
		w.U64(x.GlobalDocs)
		w.Strings(x.StatsTerms)
		w.U64s(x.StatsDF)
	case *QueryResult:
		w.String(x.QueryID)
		w.String(x.From)
		w.Uvarint(uint64(len(x.Items)))
		for _, it := range x.Items {
			w.String(it.DocID)
			w.String(it.Source)
			w.F64(it.Score)
			w.String(it.Snippet)
		}
		w.F64(x.Elapsed)
		w.U64(x.TraceID)
		w.U64(x.Epoch)
	default:
		panic("unhandled message type")
	}
	return w.Bytes()
}

// TestAppendToByteIdentical pins the wire format: AppendTo and the legacy
// Writer encoding produce the same bytes, so old peers decode new frames
// and vice versa.
func TestAppendToByteIdentical(t *testing.T) {
	for _, tc := range hotMessages() {
		want := legacyMarshal(tc.msg)
		if got := tc.msg.AppendTo(nil); !bytes.Equal(got, want) {
			t.Errorf("%v: AppendTo != legacy Writer encoding\n got %x\nwant %x", tc.kind, got, want)
		}
		// AppendTo must extend, not clobber, a non-empty dst.
		prefix := []byte{0xAA, 0xBB}
		got := tc.msg.AppendTo(append([]byte(nil), prefix...))
		if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
			t.Errorf("%v: AppendTo does not append after an existing prefix", tc.kind)
		}
	}
}

// TestHandshakeGoldenBytes pins the message legacyMarshal has no reference
// for against the bytes its Writer-built Marshal produced before AppendTo
// became the only marshal.
func TestHandshakeGoldenBytes(t *testing.T) {
	hello := &Hello{NodeID: "n1", Addr: "1.2.3.4:9", Topics: []string{"jewelry", "art"}, Capacity: 42, ShardStart: 0x1000, ShardEnd: 0xffffffffffffffff}
	for _, tc := range []struct {
		name string
		msg  Appender
		want string
	}{
		{"hello", hello, "026e3109312e322e332e343a3902076a6577656c7279036172742a000000000000000010000000000000ffffffffffffffff"},
	} {
		if got := hex.EncodeToString(tc.msg.AppendTo(nil)); got != tc.want {
			t.Errorf("%s: AppendTo = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestAppendFrameMatchesEncodeFrame pins the one-pass framing (header
// placeholder + payload + patch) against the two-pass EncodeFrame.
func TestAppendFrameMatchesEncodeFrame(t *testing.T) {
	var batchNew, batchOld []byte
	for _, tc := range hotMessages() {
		batchNew = AppendFrame(batchNew, tc.kind, tc.msg)
		batchOld = EncodeFrame(batchOld, tc.kind, tc.msg.AppendTo(nil))
	}
	if !bytes.Equal(batchNew, batchOld) {
		t.Fatalf("AppendFrame batch differs from EncodeFrame batch\n got %x\nwant %x", batchNew, batchOld)
	}
}

// chunkReader delivers its underlying bytes in deliberately awkward
// chunks, hitting every torn-frame boundary a TCP stream can produce.
type chunkReader struct {
	data  []byte
	off   int
	sizes []int
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.off >= len(c.data) {
		return 0, io.EOF
	}
	n := c.sizes[c.i%len(c.sizes)]
	c.i++
	if n > len(p) {
		n = len(p)
	}
	if c.off+n > len(c.data) {
		n = len(c.data) - c.off
	}
	copy(p, c.data[c.off:c.off+n])
	c.off += n
	return n, nil
}

// TestFrameReaderTornBoundaries decodes a multi-frame batch delivered in
// 1/2/3/5/7-byte chunks: header and payload reads straddle every Read
// boundary and the stream must still decode frame-for-frame.
func TestFrameReaderTornBoundaries(t *testing.T) {
	var batch []byte
	msgs := hotMessages()
	for _, tc := range msgs {
		batch = AppendFrame(batch, tc.kind, tc.msg)
	}
	fr := NewFrameReader(bufio.NewReaderSize(&chunkReader{data: batch, sizes: []int{1, 2, 3, 5, 7}}, 16))
	for i, tc := range msgs {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Kind != tc.kind {
			t.Fatalf("frame %d: kind %v, want %v", i, f.Kind, tc.kind)
		}
		if want := tc.msg.AppendTo(nil); !bytes.Equal(f.Payload, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after batch: err = %v, want EOF", err)
	}
}

// TestFrameReaderBackwardCompat proves old peers interoperate both ways:
// frames produced by the legacy encoder (Marshal + WriteFrame) decode via
// FrameReader, and frames staged by the new batch path decode via the
// legacy ReadFrame and DecodeFrame, all byte-identically.
func TestFrameReaderBackwardCompat(t *testing.T) {
	msgs := hotMessages()

	// Old sender -> new reader.
	var legacy bytes.Buffer
	for _, tc := range msgs {
		if err := WriteFrame(&legacy, tc.kind, legacyMarshal(tc.msg)); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(legacy.Bytes())))
	for i, tc := range msgs {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("legacy frame %d: %v", i, err)
		}
		if f.Kind != tc.kind || !bytes.Equal(f.Payload, legacyMarshal(tc.msg)) {
			t.Fatalf("legacy frame %d decoded wrong", i)
		}
	}

	// New batched sender -> old readers.
	var batch []byte
	for _, tc := range msgs {
		batch = AppendFrame(batch, tc.kind, tc.msg)
	}
	r := bufio.NewReader(bytes.NewReader(batch))
	for i, tc := range msgs {
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame on batched frame %d: %v", i, err)
		}
		if f.Kind != tc.kind || !bytes.Equal(f.Payload, legacyMarshal(tc.msg)) {
			t.Fatalf("ReadFrame on batched frame %d decoded wrong", i)
		}
	}
	rest := batch
	for i, tc := range msgs {
		f, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("DecodeFrame on batched frame %d: %v", i, err)
		}
		if f.Kind != tc.kind || !bytes.Equal(f.Payload, legacyMarshal(tc.msg)) {
			t.Fatalf("DecodeFrame on batched frame %d decoded wrong", i)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding the batch", len(rest))
	}
}

// TestDecodeFrameShortBatch pins the accumulate-and-retry contract on a
// split batch: every prefix short of a full frame yields ErrShortBuffer,
// then the complete frame decodes and the loop advances.
func TestDecodeFrameShortBatch(t *testing.T) {
	var batch []byte
	msgs := hotMessages()
	for _, tc := range msgs {
		batch = AppendFrame(batch, tc.kind, tc.msg)
	}
	decoded := 0
	have := 0
	consumed := 0
	for decoded < len(msgs) {
		f, n, err := DecodeFrame(batch[consumed:have])
		if errors.Is(err, ErrShortBuffer) {
			if have >= len(batch) {
				t.Fatal("stream exhausted with frames undecoded")
			}
			have += 3 // drip three more bytes into the accumulator
			if have > len(batch) {
				have = len(batch)
			}
			continue
		}
		if err != nil {
			t.Fatalf("frame %d: %v", decoded, err)
		}
		if f.Kind != msgs[decoded].kind {
			t.Fatalf("frame %d: kind %v", decoded, f.Kind)
		}
		consumed += n
		decoded++
	}
}

// TestFrameReaderReusesPayloadBuffer pins the pooling that makes the read
// path zero-alloc: consecutive frames that fit the high-water buffer share
// its backing array (the documented ownership rule exists because of
// exactly this).
func TestFrameReaderReusesPayloadBuffer(t *testing.T) {
	big := &Query{ID: "q1", Text: "a reasonably long query to set the high-water mark"}
	small := &Query{ID: "s1", Text: "t"}
	var batch []byte
	batch = AppendFrame(batch, KindQuery, big)
	batch = AppendFrame(batch, KindQuery, small)
	batch = AppendFrame(batch, KindQuery, big)

	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(batch)))
	f1, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	first := &f1.Payload[0]
	for i := 0; i < 2; i++ {
		f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Payload) == 0 || &f.Payload[0] != first {
			t.Fatal("payload buffer was reallocated for a frame under the high-water size")
		}
	}
}

package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundtrip(t *testing.T) {
	w := NewWriter(0)
	w.U8(7)
	w.U32(123456)
	w.U64(1 << 60)
	w.I64(-42)
	w.Uvarint(300)
	w.F64(3.14159)
	w.Bool(true)
	w.Bool(false)
	w.String("agora")
	w.Blob([]byte{1, 2, 3})
	w.F64s([]float64{1, 2, 0.5})
	w.Strings([]string{"a", "bb"})

	r := NewReader(w.Bytes())
	if r.U8() != 7 || r.U32() != 123456 || r.U64() != 1<<60 || r.I64() != -42 {
		t.Fatal("int roundtrip failed")
	}
	if r.Uvarint() != 300 {
		t.Fatal("uvarint roundtrip failed")
	}
	if r.F64() != 3.14159 {
		t.Fatal("f64 roundtrip failed")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool roundtrip failed")
	}
	if r.String() != "agora" {
		t.Fatal("string roundtrip failed")
	}
	if !bytes.Equal(r.Blob(), []byte{1, 2, 3}) {
		t.Fatal("blob roundtrip failed")
	}
	if !reflect.DeepEqual(r.F64s(), []float64{1, 2, 0.5}) {
		t.Fatal("f64s roundtrip failed")
	}
	if !reflect.DeepEqual(r.Strings(), []string{"a", "bb"}) {
		t.Fatal("strings roundtrip failed")
	}
	if r.Err() != nil {
		t.Fatalf("unexpected err: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U32() // short
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	if got := r.U8(); got != 0 {
		t.Fatal("reads after error must return zero values")
	}
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("err = %v", r.Err())
	}
}

func TestReaderHugeLengthRejected(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(uint64(MaxBlob) + 1)
	r := NewReader(w.Bytes())
	_ = r.String()
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("err = %v", r.Err())
	}
}

func TestFrameRoundtrip(t *testing.T) {
	payload := []byte("hello agora")
	buf := EncodeFrame(nil, KindQuery, payload)
	f, n, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if f.Kind != KindQuery || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("frame = %+v", f)
	}
}

func TestFramePartialBuffer(t *testing.T) {
	buf := EncodeFrame(nil, KindPing, []byte("x"))
	for i := 0; i < len(buf); i++ {
		_, _, err := DecodeFrame(buf[:i])
		if !errors.Is(err, ErrShortBuffer) {
			t.Fatalf("partial at %d: err = %v", i, err)
		}
	}
}

func TestFrameCorruption(t *testing.T) {
	buf := EncodeFrame(nil, KindQuery, []byte("payload-bytes"))
	// Flip a payload byte: checksum must catch it.
	buf[len(buf)-1] ^= 0xFF
	if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want checksum", err)
	}
	// Bad magic.
	buf2 := EncodeFrame(nil, KindQuery, []byte("p"))
	buf2[0] = 0
	if _, _, err := DecodeFrame(buf2); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want bad magic", err)
	}
	// Bad version.
	buf3 := EncodeFrame(nil, KindQuery, []byte("p"))
	buf3[2] = 99
	if _, _, err := DecodeFrame(buf3); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want version", err)
	}
}

func TestFrameStreamIO(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindHello, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, KindPong, []byte("two")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&buf)
	f1, err := ReadFrame(br)
	if err != nil || f1.Kind != KindHello || string(f1.Payload) != "one" {
		t.Fatalf("f1 = %+v, err = %v", f1, err)
	}
	f2, err := ReadFrame(br)
	if err != nil || f2.Kind != KindPong || string(f2.Payload) != "two" {
		t.Fatalf("f2 = %+v, err = %v", f2, err)
	}
}

func TestFrameDecodeMultipleFromOneBuffer(t *testing.T) {
	buf := EncodeFrame(nil, KindPing, []byte("a"))
	buf = EncodeFrame(buf, KindPong, []byte("bb"))
	f1, n1, err := DecodeFrame(buf)
	if err != nil || f1.Kind != KindPing {
		t.Fatal(err)
	}
	f2, _, err := DecodeFrame(buf[n1:])
	if err != nil || f2.Kind != KindPong || string(f2.Payload) != "bb" {
		t.Fatal(err)
	}
}

// TestFrameReaderHoldsWhatArrives: a header that claims the largest frame
// allowed and is followed by nothing must fail without the reader having
// allocated the claim — every server connection reads its frames this way.
func TestFrameReaderHoldsWhatArrives(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint16(nil, Magic)
	hdr = append(hdr, Version, byte(KindQuery))
	hdr = binary.LittleEndian.AppendUint32(hdr, maxFrameLen)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(hdr)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := fr.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("header claiming %d bytes, then EOF: err = %v, want EOF", maxFrameLen, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a bare header allocated %d bytes", got)
	}
}

func TestHelloRoundtrip(t *testing.T) {
	m := Hello{NodeID: "n1", Addr: "127.0.0.1:9", Topics: []string{"jewelry", "dance"}, Capacity: 10}
	got, err := UnmarshalHello(m.AppendTo(nil))
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestQueryRoundtrip(t *testing.T) {
	m := Query{
		ID: "q1", From: "iris", Text: "byzantine gold ring",
		Concept: []float64{0.1, -0.5, 2},
		TopK:    10, TTL: 3,
		Want: QoSTerms{Price: 2.5, LatencyMs: 100, Completeness: 0.9, FreshnessSec: 60, Trust: 0.8, Premium: 1.5, PenaltyRate: 0.3},
	}
	got, err := UnmarshalQuery(m.AppendTo(nil))
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestQueryResultRoundtrip(t *testing.T) {
	m := QueryResult{
		QueryID: "q1", From: "museum-7",
		Items: []ResultItem{
			{DocID: "d1", Source: "museum-7", Score: 0.92, Snippet: "a gold ring"},
			{DocID: "d2", Source: "museum-7", Score: 0.81, Snippet: ""},
		},
		Elapsed: 0.125,
	}
	got, err := UnmarshalQueryResult(m.AppendTo(nil))
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestFeedSubscribeRoundtrip(t *testing.T) {
	fi := FeedItem{FeedID: "f1", DocID: "d9", Source: "auction", Text: "flemish drawing", Concept: []float64{1, 2}, Seq: 42}
	gotF, err := UnmarshalFeedItem(fi.AppendTo(nil))
	if err != nil || !reflect.DeepEqual(gotF, fi) {
		t.Fatalf("feed %+v err %v", gotF, err)
	}
	s := Subscribe{SubID: "s1", From: "iris", Terms: []string{"dutch", "drawing"}, Concept: []float64{0.5}, Threshold: 0.7}
	gotS, err := UnmarshalSubscribe(s.AppendTo(nil))
	if err != nil || !reflect.DeepEqual(gotS, s) {
		t.Fatalf("sub %+v err %v", gotS, err)
	}
}

func TestQueryRoundtripProperty(t *testing.T) {
	f := func(id, from, text string, concept []float64, topK, ttl uint32, price, lat float64) bool {
		for i, c := range concept {
			if math.IsNaN(c) {
				concept[i] = 0
			}
		}
		if math.IsNaN(price) {
			price = 0
		}
		if math.IsNaN(lat) {
			lat = 0
		}
		m := Query{ID: id, From: from, Text: text, Concept: concept, TopK: topK, TTL: ttl,
			Want: QoSTerms{Price: price, LatencyMs: lat}}
		got, err := UnmarshalQuery(m.AppendTo(nil))
		if err != nil {
			return false
		}
		if len(m.Concept) == 0 {
			m.Concept = nil
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundtripProperty(t *testing.T) {
	f := func(kind uint8, payload []byte) bool {
		buf := EncodeFrame(nil, Kind(kind), payload)
		fr, n, err := DecodeFrame(buf)
		if err != nil || n != len(buf) || fr.Kind != Kind(kind) {
			return false
		}
		return bytes.Equal(fr.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if KindQuery.String() != "query" {
		t.Fatal("kind name")
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatal("unknown kind name")
	}
}

// TestUnmarshalFuzz feeds random bytes to every decoder: they must return
// errors, never panic, and never allocate absurdly (checkDecoders has the
// rest of what a decoder owes).
func TestUnmarshalFuzz(t *testing.T) {
	f := func(b []byte) bool {
		for kind := range wireDecoders {
			checkDecoders(t, kind, b)
		}
		_, _, _ = DecodeFrame(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// decoder is one Unmarshal* behind the message-independent shape the fuzz
// target drives.
type decoder func([]byte) (Appender, error)

func decoderOf[T any, P interface {
	*T
	Appender
}](unmarshal func([]byte) (T, error)) decoder {
	return func(b []byte) (Appender, error) {
		m, err := unmarshal(b)
		return P(&m), err
	}
}

// wireDecoders lists every message decoder under the kinds whose payload it
// reads: the owned-string reader first, then the shared-backing twin where
// one exists.
var wireDecoders = map[Kind][]decoder{
	KindHello:       {decoderOf(UnmarshalHello)},
	KindHelloAck:    {decoderOf(UnmarshalHello)},
	KindGossip:      {decoderOf(UnmarshalGossip)},
	KindQuery:       {decoderOf(UnmarshalQuery), decoderOf(UnmarshalQueryShared)},
	KindQueryResult: {decoderOf(UnmarshalQueryResult), decoderOf(UnmarshalQueryResultShared)},
}

// checkDecoders holds one payload against the decoders of its kind. Nothing
// may panic; the owned and the shared reader must agree on whether the
// payload decodes and on what it decodes to; and a decoded message must
// survive its own AppendTo: re-encoded and decoded again it is the same
// message. Messages are compared by their encoding, under which a NaN equals
// itself.
func checkDecoders(t *testing.T, kind Kind, payload []byte) {
	decs := wireDecoders[kind]
	if len(decs) == 0 {
		return
	}
	m, err := decs[0](payload)
	var enc []byte
	if err == nil {
		enc = m.AppendTo(nil)
	}
	for i, dec := range decs {
		if i > 0 {
			twin, terr := dec(payload)
			if (terr == nil) != (err == nil) {
				t.Fatalf("%v: owned reader says %v, shared reader says %v", kind, err, terr)
			}
			if terr == nil && !bytes.Equal(twin.AppendTo(nil), enc) {
				t.Fatalf("%v: owned and shared readers decode different messages", kind)
			}
		}
		if err != nil {
			continue
		}
		again, rerr := dec(enc)
		if rerr != nil {
			t.Fatalf("%v: re-encoded message does not decode: %v", kind, rerr)
		}
		if got := again.AppendTo(nil); !bytes.Equal(got, enc) {
			t.Fatalf("%v: message changed across AppendTo and decode\n got %x\nwant %x", kind, got, enc)
		}
	}
}

// FuzzWireDecoders drives every Unmarshal* with bytes this process did not
// write (see checkDecoders). The seeds are one well-formed payload per
// message.
func FuzzWireDecoders(f *testing.F) {
	for _, tc := range hotMessages() {
		f.Add(uint8(tc.kind), tc.msg.AppendTo(nil))
	}
	hello := Hello{NodeID: "n1", Addr: "1.2.3.4:9", Topics: []string{"jewelry"}, Capacity: 7, ShardStart: 1, ShardEnd: 1 << 40}
	f.Add(uint8(KindHello), hello.AppendTo(nil))
	assumed, drift := assumedQuery(), driftResult()
	f.Add(uint8(KindQuery), assumed.AppendTo(nil))
	f.Add(uint8(KindQueryResult), drift.AppendTo(nil))
	f.Add(uint8(KindQuery), append((&Query{ID: "q", GlobalDocs: 1}).AppendTo(nil), 0xAA, 0xBB, 0xCC)) // a tail too short to be the figures
	// A router's first contact: nothing held, so no global document count
	// and zeros assumed; and a query no store can confirm.
	first := Query{ID: "q", Text: "gold", StatsTerms: []string{"gold"}, StatsDF: []uint64{0}, Assumed: true, AssumedDF: []uint64{0}, AssumedMaxRatio: []float64{0}}
	f.Add(uint8(KindQuery), first.AppendTo(nil))
	first.AssumedDocs = math.MaxUint64
	f.Add(uint8(KindQuery), first.AppendTo(nil))
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		checkDecoders(t, Kind(kind), payload)
	})
}

// FuzzFrames reads one byte stream as frames twice: with DecodeFrame over the
// buffer, as a caller accumulating a stream does, and with FrameReader.Next,
// as every connection does. Neither may panic, and both must yield the same
// frames in the same order, then stop for the same reason: DecodeFrame's
// ErrShortBuffer where the reader meets the end of the stream (EOF or
// unexpected EOF), any other error the same errors.Is class.
func FuzzFrames(f *testing.F) {
	var stream []byte
	for _, tc := range hotMessages() {
		stream = AppendFrame(stream, tc.kind, tc.msg)
	}
	f.Add(stream)
	one := EncodeFrame(nil, KindPing, []byte("ping"))
	f.Add(one[:7]) // a torn header
	badMagic := append([]byte(nil), one...)
	badMagic[0] ^= 0xFF
	f.Add(append(append([]byte(nil), one...), badMagic...))
	badVersion := append([]byte(nil), one...)
	badVersion[2] = Version + 1
	f.Add(badVersion)
	oversized := append([]byte(nil), one...)
	binary.LittleEndian.PutUint32(oversized[4:], maxFrameLen+1)
	f.Add(oversized)
	badCRC := append([]byte(nil), one...)
	badCRC[len(badCRC)-1] ^= 0xFF
	f.Add(badCRC)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bufio.NewReader(bytes.NewReader(data)))
		for off, i := 0, 0; ; i++ {
			want, n, werr := DecodeFrame(data[off:])
			got, gerr := fr.Next()
			if werr != nil {
				if errors.Is(werr, ErrShortBuffer) {
					if !errors.Is(gerr, io.EOF) && !errors.Is(gerr, io.ErrUnexpectedEOF) {
						t.Fatalf("frame %d: DecodeFrame wants more bytes, the reader says %v", i, gerr)
					}
					return
				}
				for _, class := range []error{ErrBadMagic, ErrVersion, ErrTooLarge, ErrChecksum} {
					if errors.Is(werr, class) != errors.Is(gerr, class) {
						t.Fatalf("frame %d: DecodeFrame says %v, the reader %v", i, werr, gerr)
					}
				}
				if gerr == nil {
					t.Fatalf("frame %d: DecodeFrame says %v, the reader read a frame", i, werr)
				}
				return
			}
			if gerr != nil || got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("frame %d: DecodeFrame read %v %x, the reader %v %x (err %v)", i, want.Kind, want.Payload, got.Kind, got.Payload, gerr)
			}
			off += n
		}
	})
}

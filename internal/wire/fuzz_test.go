package wire

import (
	"bytes"
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
	KindHello:           {decoderOf(UnmarshalHello)},
	KindHelloAck:        {decoderOf(UnmarshalHello)},
	KindGossip:          {decoderOf(UnmarshalGossip)},
	KindQuery:           {decoderOf(UnmarshalQuery), decoderOf(UnmarshalQueryShared)},
	KindQueryResult:     {decoderOf(UnmarshalQueryResult), decoderOf(UnmarshalQueryResultShared)},
	KindFeedItem:        {decoderOf(UnmarshalFeedItem), decoderOf(UnmarshalFeedItemShared)},
	KindSubscribe:       {decoderOf(UnmarshalSubscribe)},
	KindTermStats:       {decoderOf(UnmarshalTermStatsReq), decoderOf(UnmarshalTermStatsReqShared)},
	KindTermStatsResult: {decoderOf(UnmarshalTermStatsResp)},
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
	sub := Subscribe{SubID: "s1", From: "iris", Terms: []string{"auction"}, Concept: []float64{0.5, -2}, Threshold: 0.4}
	f.Add(uint8(KindSubscribe), sub.AppendTo(nil))
	assumed, drift := assumedQuery(), driftResult()
	f.Add(uint8(KindQuery), assumed.AppendTo(nil))
	f.Add(uint8(KindQueryResult), drift.AppendTo(nil))
	f.Add(uint8(KindQuery), append((&Query{ID: "q", GlobalDocs: 1}).AppendTo(nil), 0xAA, 0xBB, 0xCC)) // a tail too short to be the figures
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		checkDecoders(t, Kind(kind), payload)
	})
}

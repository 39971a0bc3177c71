package wire

import (
	"reflect"
	"testing"
)

// Trace-context propagation coverage: inject→extract equality, zero-context
// passthrough, and backward compatibility with peers that predate the
// trailing trace fields.

func TestQueryTraceContextRoundtrip(t *testing.T) {
	m := Query{
		ID: "q1", From: "iris", Text: "byzantine gold ring",
		Concept: []float64{0.25}, TopK: 5, TTL: 2,
		TraceID: 0xDEADBEEFCAFEF00D, SpanID: 0x0123456789ABCDEF,
	}
	got, err := UnmarshalQuery(m.AppendTo(nil))
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v err %v", got, err)
	}
	if got.TraceID != m.TraceID || got.SpanID != m.SpanID {
		t.Fatalf("trace context mangled: %x/%x", got.TraceID, got.SpanID)
	}

	res := QueryResult{QueryID: "q1", From: "museum-7", Elapsed: 0.02, TraceID: 0xDEADBEEFCAFEF00D}
	gotRes, err := UnmarshalQueryResult(res.AppendTo(nil))
	if err != nil || gotRes.TraceID != res.TraceID {
		t.Fatalf("result trace lost: %+v err %v", gotRes, err)
	}
}

func TestQueryZeroTraceContextPassthrough(t *testing.T) {
	m := Query{ID: "q2", From: "iris", Text: "untraced", TopK: 3}
	got, err := UnmarshalQuery(m.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0 || got.SpanID != 0 {
		t.Fatalf("zero context did not survive: %x/%x", got.TraceID, got.SpanID)
	}
	res := QueryResult{QueryID: "q2", From: "p"}
	gotRes, err := UnmarshalQueryResult(res.AppendTo(nil))
	if err != nil || gotRes.TraceID != 0 {
		t.Fatalf("zero result trace: %+v err %v", gotRes, err)
	}
}

// TestQueryBackwardCompatible feeds the decoder payloads an old peer would
// produce — identical layout minus the trailing trace fields (the fields
// are fixed-width and strictly trailing, so truncation reproduces the old
// encoding exactly). They must decode cleanly with a zero context.
func TestQueryBackwardCompatible(t *testing.T) {
	m := Query{
		ID: "q3", From: "iris", Text: "old peer", Concept: []float64{1, 2},
		TopK: 7, TTL: 1, TraceID: 0x1111, SpanID: 0x2222,
	}
	// Strip the shard-stats tail (8-byte GlobalDocs + two empty-slice
	// counts) and then the 16-byte trace tail to reproduce a pre-trace
	// peer's encoding exactly.
	legacy := m.AppendTo(nil)
	legacy = legacy[:len(legacy)-10-16]
	got, err := UnmarshalQuery(legacy)
	if err != nil {
		t.Fatalf("legacy query rejected: %v", err)
	}
	want := m
	want.TraceID, want.SpanID = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy decode diverged: %+v", got)
	}

	res := QueryResult{
		QueryID: "q3", From: "p",
		Items:   []ResultItem{{DocID: "d", Source: "p", Score: 0.5, Snippet: "x"}},
		Elapsed: 0.5, TraceID: 0x3333,
	}
	// Epoch (8) then TraceID (8) off the tail → pre-trace encoding.
	legacyRes := res.AppendTo(nil)
	legacyRes = legacyRes[:len(legacyRes)-16]
	gotRes, err := UnmarshalQueryResult(legacyRes)
	if err != nil {
		t.Fatalf("legacy result rejected: %v", err)
	}
	wantRes := res
	wantRes.TraceID = 0
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("legacy result diverged: %+v", gotRes)
	}

	// And the other direction: a frame carrying the new tail decodes on a
	// decoder that ignores trailing bytes it does not know about — which is
	// this decoder's behavior for any future field appended after ours.
	extended := append(res.AppendTo(nil), 0xAA, 0xBB, 0xCC)
	gotExt, err := UnmarshalQueryResult(extended)
	if err != nil || gotExt.TraceID != res.TraceID {
		t.Fatalf("future-extended result rejected: %+v err %v", gotExt, err)
	}
}

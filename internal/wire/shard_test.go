package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// Shard-routing field coverage: the trailing optional fields added for
// scatter-gather (Hello shard range, Query global statistics and assumed
// figures, QueryResult epoch and drift figures). Mirrors trace_test.go: every
// new field must round-trip, and payloads truncated back to an older peer's
// layout must decode cleanly with zero values.

func TestHelloShardRangeRoundtrip(t *testing.T) {
	m := Hello{
		NodeID: "shard-3", Addr: "127.0.0.1:7003",
		Topics: []string{"porcelain"}, Capacity: 9,
		ShardStart: 0x6000000000000000, ShardEnd: 0x7FFFFFFFFFFFFFFF,
	}
	got, err := UnmarshalHello(m.AppendTo(nil))
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v err %v", got, err)
	}
}

// TestHelloBackwardCompatible feeds the decoder a payload an old peer would
// produce — the layout minus the trailing 16-byte shard range. It must
// decode with a zero range (= unsharded node).
func TestHelloBackwardCompatible(t *testing.T) {
	m := Hello{
		NodeID: "old-node", Addr: "127.0.0.1:7000",
		Topics: []string{"maps", "coins"}, Capacity: 4,
		ShardStart: 1, ShardEnd: 2,
	}
	legacy := m.AppendTo(nil)
	legacy = legacy[:len(legacy)-16]
	got, err := UnmarshalHello(legacy)
	if err != nil {
		t.Fatalf("legacy hello rejected: %v", err)
	}
	want := m
	want.ShardStart, want.ShardEnd = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy decode diverged: %+v", got)
	}

	// Future direction: trailing bytes after the range are ignored.
	extended := append(m.AppendTo(nil), 0x01, 0x02)
	gotExt, err := UnmarshalHello(extended)
	if err != nil || gotExt.ShardEnd != m.ShardEnd {
		t.Fatalf("future-extended hello rejected: %+v err %v", gotExt, err)
	}
}

func TestQueryGlobalStatsRoundtrip(t *testing.T) {
	m := Query{
		ID: "q9", From: "router", Text: "amphora trade routes",
		TopK: 10, TTL: 1,
		TraceID: 0xAAAA, SpanID: 0xBBBB,
		GlobalDocs: 120000,
		StatsTerms: []string{"amphora", "trade", "routes"},
		StatsDF:    []uint64{312, 48000, 2901},
	}
	got, err := UnmarshalQuery(m.AppendTo(nil))
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v err %v", got, err)
	}
}

// TestQueryGlobalStatsBackwardCompatible: a trace-era peer's Query — trace
// tail present, shard-stats tail absent — decodes with GlobalDocs == 0
// (score locally), and the trace context survives.
func TestQueryGlobalStatsBackwardCompatible(t *testing.T) {
	m := Query{
		ID: "q10", From: "iris", Text: "trace era", TopK: 3,
		TraceID: 0x1234, SpanID: 0x5678,
	}
	// With no stats set the shard tail is exactly 10 bytes: GlobalDocs (8)
	// plus two empty-slice uvarint counts (1+1). Truncating it reproduces
	// the trace-era encoding.
	legacy := m.AppendTo(nil)
	legacy = legacy[:len(legacy)-10]
	got, err := UnmarshalQuery(legacy)
	if err != nil {
		t.Fatalf("trace-era query rejected: %v", err)
	}
	if got.GlobalDocs != 0 || got.StatsTerms != nil || got.StatsDF != nil {
		t.Fatalf("stats materialized from nowhere: %+v", got)
	}
	if got.TraceID != m.TraceID || got.SpanID != m.SpanID {
		t.Fatalf("trace context lost: %x/%x", got.TraceID, got.SpanID)
	}
}

func TestQueryResultEpochRoundtrip(t *testing.T) {
	m := QueryResult{
		QueryID: "q9", From: "shard-3",
		Items:   []ResultItem{{DocID: "d1", Source: "shard-3", Score: 1.5, Snippet: "…"}},
		Elapsed: 0.001, TraceID: 0xAAAA, Epoch: 42,
	}
	got, err := UnmarshalQueryResult(m.AppendTo(nil))
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v err %v", got, err)
	}

	// Trace-era peer: Epoch absent. Truncate its 8 bytes; TraceID survives.
	legacy := m.AppendTo(nil)
	legacy = legacy[:len(legacy)-8]
	gotLegacy, err := UnmarshalQueryResult(legacy)
	if err != nil || gotLegacy.Epoch != 0 || gotLegacy.TraceID != m.TraceID {
		t.Fatalf("trace-era result diverged: %+v err %v", gotLegacy, err)
	}
}

// assumedQuery and driftResult carry the two optional tails of the
// validated ask: what the router assumed of the shard, and the shard's
// correction.
func assumedQuery() Query {
	return Query{
		ID: "q11", From: "router", Text: "amphora trade", TopK: 10,
		TraceID: 0xAAAA, SpanID: 0xBBBB,
		GlobalDocs: 120000, StatsTerms: []string{"amphora", "trade"}, StatsDF: []uint64{312, 48000},
		Assumed: true, AssumedDocs: 30000, AssumedDF: []uint64{80, 12000}, AssumedMaxRatio: []float64{0.61, 0.47},
	}
}

func driftResult() QueryResult {
	return QueryResult{
		QueryID: "q11", From: "shard-3", Elapsed: 0.001, TraceID: 0xAAAA, Epoch: 43,
		Drift: true, Docs: 30004, DF: []uint64{81, 12003}, MaxRatio: []float64{0.61, 0.5},
	}
}

// TestAssumedTailCompatible: the assumed figures round-trip; a frame without
// them (an old router's) decodes on this decoder as an unconditional ask; and
// a frame with them is, up to where an old decoder stops reading, byte for
// byte the frame an old router would have sent.
func TestAssumedTailCompatible(t *testing.T) {
	m := assumedQuery()
	enc := m.AppendTo(nil)
	for _, unmarshal := range []func([]byte) (Query, error){UnmarshalQuery, UnmarshalQueryShared} {
		if got, err := unmarshal(enc); err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("got %+v err %v", got, err)
		}
	}
	old := m
	old.Assumed, old.AssumedDocs, old.AssumedDF, old.AssumedMaxRatio = false, 0, nil, nil
	oldEnc := old.AppendTo(nil)
	if got, err := UnmarshalQuery(oldEnc); err != nil || !reflect.DeepEqual(got, old) {
		t.Fatalf("old frame on the new decoder: %+v err %v", got, err)
	}
	if !bytes.HasPrefix(enc, oldEnc) || len(enc) != len(oldEnc)+8+(1+16)+(1+16) {
		t.Fatalf("the tail is not a pure suffix: %d bytes after a %d-byte old frame", len(enc)-len(oldEnc), len(oldEnc))
	}

	// What follows the statistics tail but cannot be the assumed figures —
	// a future field shorter than them, or a count that overruns the frame —
	// is a tail this decoder does not know: ignored, not a short buffer.
	for name, tail := range map[string][]byte{
		"short":   {0xAA, 0xBB, 0xCC},
		"overrun": append(make([]byte, 8), 0x7F, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09),
	} {
		got, err := UnmarshalQuery(append(old.AppendTo(nil), tail...))
		if err != nil || !reflect.DeepEqual(got, old) {
			t.Fatalf("%s tail: %+v err %v", name, got, err)
		}
	}
	// And bytes after the assumed figures are the next future field.
	if got, err := UnmarshalQuery(append(m.AppendTo(nil), 0x01, 0x02)); err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("future-extended assumed query: %+v err %v", got, err)
	}
}

// TestDecodeQuerySharedReusesArrays: the server's decode target keeps the
// assumed-figure arrays from one query to the next, and a query without the
// tail leaves no figures of the last one behind.
func TestDecodeQuerySharedReusesArrays(t *testing.T) {
	m := assumedQuery()
	enc := m.AppendTo(nil)
	var q Query
	if err := DecodeQueryShared(enc, &q); err != nil || !reflect.DeepEqual(q, m) {
		t.Fatalf("first decode: %+v err %v", q, err)
	}
	df, ratio := &q.AssumedDF[0], &q.AssumedMaxRatio[0]
	if n := testing.AllocsPerRun(100, func() {
		if err := DecodeQueryShared(enc, &q); err != nil {
			t.Fatal(err)
		}
	}); n > 3 { // the shared string backing, StatsTerms, StatsDF
		t.Fatalf("%v allocations per warm decode, want the assumed figures to cost none", n)
	}
	if &q.AssumedDF[0] != df || &q.AssumedMaxRatio[0] != ratio {
		t.Fatal("the assumed figures moved to new arrays")
	}
	plain := Query{ID: "q12", Text: "amphora", TopK: 3, GlobalDocs: 9, StatsTerms: []string{"amphora"}, StatsDF: []uint64{2}}
	if err := DecodeQueryShared(plain.AppendTo(nil), &q); err != nil || q.Assumed || len(q.AssumedDF)+len(q.AssumedMaxRatio) != 0 || q.ID != "q12" {
		t.Fatalf("query without the tail after one with it: %+v err %v", q, err)
	}
}

// TestDriftTailCompatible is TestAssumedTailCompatible for the reply.
func TestDriftTailCompatible(t *testing.T) {
	m := driftResult()
	enc := m.AppendTo(nil)
	for _, unmarshal := range []func([]byte) (QueryResult, error){UnmarshalQueryResult, UnmarshalQueryResultShared} {
		if got, err := unmarshal(enc); err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("got %+v err %v", got, err)
		}
	}
	old := m
	old.Drift, old.Docs, old.DF, old.MaxRatio = false, 0, nil, nil
	oldEnc := old.AppendTo(nil)
	if got, err := UnmarshalQueryResult(oldEnc); err != nil || !reflect.DeepEqual(got, old) {
		t.Fatalf("old frame on the new decoder: %+v err %v", got, err)
	}
	if !bytes.HasPrefix(enc, oldEnc) {
		t.Fatal("the drift tail is not a pure suffix of the old frame")
	}
	if got, err := UnmarshalQueryResult(append(enc, 0x01)); err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("future-extended drift reply: %+v err %v", got, err)
	}
}

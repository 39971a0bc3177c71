package wire

import (
	"reflect"
	"testing"
)

// Shard-routing field coverage: the trailing optional fields added for
// scatter-gather (Hello shard range, Query global statistics, QueryResult
// epoch) and the TermStats message pair. Mirrors trace_test.go: every new
// field must round-trip, and payloads truncated back to an older peer's
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

func TestTermStatsRoundtrip(t *testing.T) {
	req := TermStatsReq{ID: "s1", Terms: []string{"amphora", "trade"}}
	gotReq, err := UnmarshalTermStatsReq(req.AppendTo(nil))
	if err != nil || !reflect.DeepEqual(gotReq, req) {
		t.Fatalf("req: got %+v err %v", gotReq, err)
	}

	resp := TermStatsResp{
		ID: "s1", Total: 15000, Epoch: 7,
		DF:       []uint64{12, 4400},
		MaxRatio: []float64{0.61, 0.47},
	}
	gotResp, err := UnmarshalTermStatsResp(resp.AppendTo(nil))
	if err != nil || !reflect.DeepEqual(gotResp, resp) {
		t.Fatalf("resp: got %+v err %v", gotResp, err)
	}

	// Empty request/response (term unseen everywhere) round-trips too.
	empty := TermStatsResp{ID: "s2", Total: 0, Epoch: 1}
	gotEmpty, err := UnmarshalTermStatsResp(empty.AppendTo(nil))
	if err != nil || !reflect.DeepEqual(gotEmpty, empty) {
		t.Fatalf("empty resp: got %+v err %v", gotEmpty, err)
	}
}

func TestTermStatsKindNames(t *testing.T) {
	if KindTermStats.String() != "termStats" || KindTermStatsResult.String() != "termStatsResult" {
		t.Fatalf("kind names missing: %v %v", KindTermStats, KindTermStatsResult)
	}
}

package shard

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/docstore"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The BenchmarkScatterShardsN family is the profiling entry point for the
// scatter path: a fixed 128k-document Zipfian corpus served by 1/2/4/8
// shard servers over real TCP, asked under sustained ingest (one
// 64-document batch per 4 asks — the open agora's operating point, where
// every overlayLimit writes the written store compiles its overlay into a
// segment and, some of those times, merges its newest tiers). ns/op is the
// per-ask cost with the
// ingest schedule folded in; p50/p99 ask latency, realized fan-out, and
// pruned shards land in the extras. Run with a fixed iteration count
// (-benchtime 256x = the full churn pool) so every shard width measures the
// identical schedule. Nothing gates these numbers; a perf claim goes
// through `go run ./benchmark` (scatter_read, scatter_ingest).

const (
	benchDocs        = 131072
	benchIngestEvery = 4
	benchIngestBatch = 64
)

// benchCorpus is generated once and shared: re-deriving 64k documents per
// shard count would dwarf the measured loops.
var benchCorpus struct {
	once    sync.Once
	docs    []*docstore.Document
	churn   []*docstore.Document
	queries []string
}

func benchSetup() {
	benchCorpus.once.Do(func() {
		g := workload.NewGenerator(1, 16, 16)
		corpus := g.GenCorpus(benchDocs, 1.1, int64(time.Hour))
		benchCorpus.docs = make([]*docstore.Document, len(corpus))
		for i, d := range corpus {
			benchCorpus.docs[i] = d.Doc
		}
		churn := g.GenCorpus(4096, 1.1, 0)
		benchCorpus.churn = make([]*docstore.Document, len(churn))
		for i, d := range churn {
			benchCorpus.churn[i] = d.Doc
			benchCorpus.churn[i].ID = fmt.Sprintf("churn%05d", i)
		}
		users := g.GenUsers(64)
		benchCorpus.queries = make([]string, 128)
		for i := range benchCorpus.queries {
			benchCorpus.queries[i], _, _ = g.QueryFor(users[i%len(users)])
		}
	})
}

// ingest routes one churn batch to its owning shards through the ordinary
// write path.
func (tc *testCluster) ingest(b *testing.B, batch []*docstore.Document) {
	parts := make(map[string][]*docstore.Document)
	for _, d := range batch {
		parts[tc.m.Locate(DocKey(d)).ID] = append(parts[tc.m.Locate(DocKey(d)).ID], d)
	}
	for id, p := range parts {
		if err := tc.stores[id].PutBatch(p); err != nil {
			b.Fatalf("ingest: %v", err)
		}
	}
}

func benchmarkScatter(b *testing.B, n int) {
	benchSetup()
	tc := startCluster(b, n, benchCorpus.docs)
	r := tc.router(b, Options{Telemetry: telemetry.NewRegistry()})
	queries := benchCorpus.queries
	for _, q := range queries { // warm the per-shard statistics caches
		if res := r.Ask(q, 10); res.Partial {
			b.Fatalf("partial warm-up ask: %v", res.Errors)
		}
	}

	lats := make([]time.Duration, 0, b.N)
	fanout, pruned, next := 0, 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchIngestEvery == benchIngestEvery-1 {
			// Fixed ingest schedule; the pool wraps into replacement
			// churn, which exercises the same overlay/freeze path.
			lo := next % len(benchCorpus.churn)
			hi := min(lo+benchIngestBatch, len(benchCorpus.churn))
			tc.ingest(b, benchCorpus.churn[lo:hi])
			next += benchIngestBatch
		}
		start := time.Now()
		res := r.Ask(queries[i%len(queries)], 10)
		lats = append(lats, time.Since(start))
		fanout += res.Fanout
		pruned += res.Pruned
		if res.Partial {
			b.Fatalf("partial ask: %v", res.Errors)
		}
	}
	b.StopTimer()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	b.ReportMetric(float64(lats[len(lats)/2].Nanoseconds()), "p50-ns/op")
	b.ReportMetric(float64(lats[len(lats)*99/100].Nanoseconds()), "p99-ns/op")
	b.ReportMetric(float64(fanout)/float64(b.N), "fanout/op")
	b.ReportMetric(float64(pruned)/float64(b.N), "pruned/op")
}

func BenchmarkScatterShards1(b *testing.B) { benchmarkScatter(b, 1) }
func BenchmarkScatterShards2(b *testing.B) { benchmarkScatter(b, 2) }
func BenchmarkScatterShards4(b *testing.B) { benchmarkScatter(b, 4) }
func BenchmarkScatterShards8(b *testing.B) { benchmarkScatter(b, 8) }

// The BenchmarkQueryRoundtripNShards pair is the wire view of the scatter
// path: pure warm-cache asks over real TCP with no ingest schedule, so
// ns/op and allocs/op isolate the framed request/response exchange (stats
// cached, per-shard Query + merge) rather than the freeze/overlay economics
// the Scatter family measures.
func benchmarkRoundtrip(b *testing.B, n int) {
	benchSetup()
	tc := startCluster(b, n, benchCorpus.docs)
	r := tc.router(b, Options{Telemetry: telemetry.NewRegistry()})
	queries := benchCorpus.queries
	for _, q := range queries { // warm the per-shard statistics caches
		if res := r.Ask(q, 10); res.Partial {
			b.Fatalf("partial warm-up ask: %v", res.Errors)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := r.Ask(queries[i%len(queries)], 10); res.Partial {
			b.Fatalf("partial ask: %v", res.Errors)
		}
	}
}

func BenchmarkQueryRoundtrip1Shards(b *testing.B) { benchmarkRoundtrip(b, 1) }
func BenchmarkQueryRoundtrip8Shards(b *testing.B) { benchmarkRoundtrip(b, 8) }

package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// benchWorld is buildWorld with the telemetry registry as the only variable
// between the Off/On benchmarks.
// Compare the two with -benchmem: the nil-registry path must not add
// allocations over the uninstrumented baseline (nil instruments are
// no-ops), and the enabled path's cost should stay in the noise of a full
// pipeline run.
func benchWorld(tb testing.TB, reg *telemetry.Registry) (*Session, string, []float64) {
	tb.Helper()
	a := New(Config{Seed: 1, ConceptDim: 32, Telemetry: reg})
	g := workload.NewGenerator(1, 32, 8)
	docs := g.GenCorpus(600, 1.2, int64(time.Hour))
	for i, list := range g.AssignToSources(docs, 4, 0.8) {
		n, err := a.AddNode(workload.SourceName(i), DefaultEconomics(), DefaultBehavior())
		if err != nil {
			tb.Fatal(err)
		}
		for _, d := range list {
			if err := n.Ingest(d.Doc); err != nil {
				tb.Fatal(err)
			}
		}
	}
	p := profile.New("bench", 32)
	topic := g.Topics[0]
	p.Interests = topic.Center.Clone()
	s := a.NewSession(p)
	aql := fmt.Sprintf(`FIND documents WHERE text ~ "%s" AND topic = "%s" TOP 10`,
		topic.Vocab[0]+" "+topic.Vocab[1], topic.Name)
	return s, aql, topic.Center
}

func benchmarkAsk(b *testing.B, reg *telemetry.Registry) {
	s, aql, concept := benchWorld(b, reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ask(aql, concept); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAskTelemetryOff(b *testing.B) { benchmarkAsk(b, nil) }

func BenchmarkAskTelemetryOn(b *testing.B) { benchmarkAsk(b, telemetry.NewRegistry()) }

// askedRegistry builds the benchmark world under a seeded registry, issues
// queries asks and returns the registry.
func askedRegistry(t *testing.T, queries int) *telemetry.Registry {
	t.Helper()
	reg := telemetry.NewRegistrySeeded(24)
	s, aql, concept := benchWorld(t, reg)
	for i := 0; i < queries; i++ {
		if _, err := s.Ask(aql, concept); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// TestTelemetryCountsEveryAsk pins that the instruments agree with each
// other and with the workload: under a registry, the ask counter and the
// ask-latency histogram's count both equal the asks issued, the histogram's
// quantiles are monotone, and the trace sampler keeps at least one trace.
func TestTelemetryCountsEveryAsk(t *testing.T) {
	const queries = 120
	snap := askedRegistry(t, queries).Snapshot()
	asks := snap.Counters["core.ask"]
	askHist := snap.Histograms["core.ask.latency"]
	monotone := askHist.P50 <= askHist.P95 && askHist.P95 <= askHist.P99 && askHist.P99 <= askHist.Max
	if coherent := asks == uint64(queries) && askHist.Count == asks && monotone; !coherent {
		t.Fatalf("telemetry snapshot incoherent: asks=%v histogram=%+v queries=%v", asks, askHist, queries)
	}
	if len(snap.Traces) == 0 {
		t.Fatal("trace ring retained nothing")
	}
}

// TestAskTracesCarryIDs pins the tracing path of an ask: every retained
// trace carries a nonzero trace ID, the sampler keeps at least one and at
// most its budget, and the latency histogram holds trace-ID exemplars for
// the exposition path.
func TestAskTracesCarryIDs(t *testing.T) {
	reg := askedRegistry(t, 120)
	snap := reg.Snapshot()
	tracedAsks := 0
	for _, tr := range snap.Traces {
		if tr.TraceID != "" && tr.TraceID != "0000000000000000" {
			tracedAsks++
		}
	}
	exemplarBuckets := 0
	for _, b := range reg.Histogram("core.ask.latency").Buckets() {
		if b.Exemplar != nil {
			exemplarBuckets++
		}
	}
	if tracedAsks != len(snap.Traces) || len(snap.Traces) == 0 || exemplarBuckets == 0 {
		t.Fatalf("%d of %d traces carry a trace ID, %d exemplar buckets", tracedAsks, len(snap.Traces), exemplarBuckets)
	}
	if len(snap.Traces) > telemetry.DefaultTraceCapacity {
		t.Fatalf("retained traces outside budget: %v", len(snap.Traces))
	}
}

package bench

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// E24DistributedTracing checks what distributed tracing keeps. The ask
// pipeline runs under a seeded registry (trace IDs minted per ask,
// exemplars stored per latency observation, tail sampler deciding
// retention): every ask must be counted, every retained trace must carry a
// nonzero trace ID, and the ask-latency histogram must hold trace-ID
// exemplars for the exposition path. A second phase streams a burst of OK
// and failed traces through the same registry and checks the tail
// sampler's contract on the public API: every error trace survives within
// the fixed retention budget.
func E24DistributedTracing(seed int64, scale float64) *Result {
	reg := telemetry.NewRegistrySeeded(uint64(seed) + 24)
	queries := runAskPipeline(seed, scale, reg)
	snap := reg.Snapshot()

	asks := snap.Counters["core.ask"]
	tracedAsks := 0
	for _, t := range snap.Traces {
		if t.TraceID != "" && t.TraceID != "0000000000000000" {
			tracedAsks++
		}
	}
	exemplarBuckets := 0
	for _, b := range reg.Histogram("core.ask.latency").Buckets() {
		if b.Exemplar != nil {
			exemplarBuckets++
		}
	}
	coherent := asks == uint64(queries) && tracedAsks == len(snap.Traces) &&
		len(snap.Traces) > 0 && exemplarBuckets > 0

	// Retention phase: a burst of cheap OK traces large enough to evict any
	// FIFO ring, with rare failures sprinkled in. The tail sampler must
	// keep every failure; a FIFO of the same budget would have evicted the
	// early ones.
	burst := scaleInt(800, scale, 200)
	errEvery := 97 // coprime with the burst so failures spread out
	wantErrs := 0
	errProbe := errors.New("provider unreachable")
	for i := 0; i < burst; i++ {
		tr := reg.StartTrace("probe", fmt.Sprintf("burst-%d", i))
		if i%errEvery == 0 && wantErrs < 12 {
			tr.Fail(errProbe)
			wantErrs++
		}
		tr.Finish()
	}
	keptErrs := 0
	for _, t := range reg.Snapshot().Traces {
		if t.Err != "" {
			keptErrs++
		}
	}

	table := metrics.NewTable("E24: trace identity, exemplars & tail-sampled retention",
		"phase", "traces started", "traces kept", "with trace ID", "exemplar buckets", "errors kept")
	table.AddRow("ask pipeline", asks, len(snap.Traces), tracedAsks, exemplarBuckets, "-")
	table.AddRow("retention burst", burst, "-", "-", "-", fmt.Sprintf("%d of %d", keptErrs, wantErrs))

	return &Result{ID: "E24", Table: table, Headline: map[string]float64{
		"queries":          float64(queries),
		"coherent":         boolAsFloat(coherent),
		"traces_kept":      float64(len(snap.Traces)),
		"exemplar_buckets": float64(exemplarBuckets),
		"burst_errors":     float64(wantErrs),
		"errors_retained":  float64(keptErrs),
	}}
}

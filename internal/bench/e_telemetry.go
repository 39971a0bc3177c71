package bench

import (
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// E20TelemetryOverhead checks that the instruments agree with each other
// and with the workload: a fixed query load runs through the full pipeline
// with the whole registry attached (counters, histograms, trace ring), and
// the ask counter, the latency-histogram count and the issued-query count
// must match exactly, with monotone histogram quantiles.
func E20TelemetryOverhead(seed int64, scale float64) *Result {
	reg := telemetry.NewRegistry()
	queries := runAskPipeline(seed, scale, reg)
	snap := reg.Snapshot()

	asks := snap.Counters["core.ask"]
	askHist := snap.Histograms["core.ask.latency"]
	monotone := askHist.P50 <= askHist.P95 && askHist.P95 <= askHist.P99 && askHist.P99 <= askHist.Max
	coherent := asks == uint64(queries) && askHist.Count == asks && monotone

	table := metrics.NewTable("E20: instrument coherence under query load",
		"queries issued", "ask counter", "latency histogram count", "quantiles monotone", "traces kept")
	table.AddRow(queries, asks, askHist.Count, monotone, len(snap.Traces))

	return &Result{ID: "E20", Table: table, Headline: map[string]float64{
		"queries":     float64(queries),
		"ask_count":   float64(asks),
		"coherent":    boolAsFloat(coherent),
		"traces_kept": float64(len(snap.Traces)),
	}}
}

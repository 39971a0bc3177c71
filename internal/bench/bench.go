// Package bench implements the synthetic evaluation suite standing in for
// the (nonexistent) evaluation section of the ICDE 2007 vision paper: one
// or more quantitative experiments per pillar, each with a workload, a
// baseline, a metric, and a table renderer. cmd/agora-bench prints every
// table; the repository-root bench_test.go wraps each experiment in a
// testing.B benchmark; EXPERIMENTS.md records measured rows.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Result is one experiment's output: the table plus headline numbers that
// tests assert qualitative shapes on.
type Result struct {
	ID       string
	Table    *metrics.Table
	Headline map[string]float64
}

// Render writes the result's table.
func (r *Result) Render(w io.Writer) { r.Table.Render(w) }

// HeadlineKeys returns the headline metric names, sorted.
func (r *Result) HeadlineKeys() []string {
	out := make([]string, 0, len(r.Headline))
	for k := range r.Headline {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Experiment is a runnable suite entry.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed int64, scale float64) *Result
}

// Suite lists every experiment in paper-pillar order.
func Suite() []Experiment {
	return []Experiment{
		{"E1", "Uncertainty: feature sets & score calibration", E1FeatureMatching},
		{"E2", "Uncertainty: source-quality belief convergence", E2BeliefConvergence},
		{"E3", "QoS: SLA premium vs breach trade-off", E3SLAPremium},
		{"E4", "Negotiation: tactics vs non-negotiating baselines", E4NegotiationTactics},
		{"E5", "Negotiation: subcontracting depth", E5Subcontracting},
		{"E6", "Personalization: profile learning", E6Personalization},
		{"E7", "Personalization: multi-source profile merging", E7ProfileMerge},
		{"E8", "Socialization: affinity-weighted re-ranking", E8SocialRerank},
		{"E9", "Collaboration: multi-query sharing", E9CollabSharing},
		{"E10", "Contextualization: variant activation", E10ContextActivation},
		{"E11", "Multi-modal: feed matching throughput", E11FeedMatching},
		{"E12", "Agora scale & churn (overlay routing)", E12ScaleChurn},
		{"E13", "Optimizer: multi-objective plan quality", E13MultiObjective},
		{"E14", "Substrate: docstore micro-benchmarks", E14Docstore},
		{"E15", "Ablation: auction vs bilateral negotiation", E15AuctionVsBilateral},
		{"E16", "Ablation: reputation learning (greengrocer loop)", E16ReputationLearning},
		{"E17", "Ablation: LSH vector-index parameters", E17LSHAblation},
		{"E18", "Integration: registry vs overlay discovery", E18DiscoveryVsRegistry},
		{"E19", "Personalization: risk-profile recovery & use", E19RiskProfiling},
		{"E20", "Substrate: telemetry instrument coherence", E20TelemetryOverhead},
		{"E21", "Pipeline: the market trip in virtual time & hedged tail latency", E21ParallelFanout},
		{"E22", "Substrate: lock-free snapshot reads under writer churn", E22LockFreeReads},
		{"E23", "Substrate: group-commit WAL determinism", E23GroupCommit},
		{"E24", "Substrate: distributed trace identity & tail-sampled retention", E24DistributedTracing},
		{"E25", "Substrate: block-max top-k search vs exhaustive scoring", E25BlockMaxSearch},
		{"E26", "Substrate: sharded corpus scatter-gather identity & pruning", E26ShardedScatter},
		{"E27", "Substrate: zero-alloc wire path", E27WirePath},
	}
}

// RunAll executes the suite at the given scale, rendering each table: the
// experiments whose IDs are in only, or all of them when only is empty. It
// returns nil when only matches nothing. Per-experiment wall time is
// recorded through the telemetry package itself (bench.<ID> histograms) and
// summarized in a closing runtime-cost table — the harness eats its own
// observability dog food.
func RunAll(w io.Writer, seed int64, scale float64, only map[string]bool) []*Result {
	reg := telemetry.NewRegistry()
	var out []*Result
	for _, e := range Suite() {
		if len(only) > 0 && !only[e.ID] {
			continue
		}
		fmt.Fprintf(w, "## %s — %s\n\n", e.ID, e.Title)
		start := time.Now()
		r := e.Run(seed, scale)
		reg.Histogram("bench." + e.ID).Observe(time.Since(start))
		r.Render(w)
		out = append(out, r)
	}
	if len(out) > 0 {
		renderRuntimes(w, reg.Snapshot(), out)
	}
	return out
}

// renderRuntimes prints the harness's own per-experiment runtime-cost table
// from a telemetry snapshot.
func renderRuntimes(w io.Writer, snap telemetry.Snapshot, results []*Result) {
	fmt.Fprintf(w, "## Harness runtime cost (wall-clock)\n\n")
	tbl := metrics.NewTable("per-experiment runtime", "experiment", "seconds")
	total := 0.0
	for _, r := range results {
		h, ok := snap.Histograms["bench."+r.ID]
		if !ok {
			continue
		}
		tbl.AddRow(r.ID, h.Sum)
		total += h.Sum
	}
	tbl.AddRow("total", total)
	tbl.Render(w)
}

// scaleInt scales a base count, with a floor.
func scaleInt(base int, scale float64, min int) int {
	n := int(float64(base) * scale)
	if n < min {
		n = min
	}
	return n
}

// Package bench implements the synthetic evaluation suite standing in for
// the (nonexistent) evaluation section of the ICDE 2007 vision paper: one
// or more quantitative experiments per pillar, each with a workload, a
// baseline, a metric, and a table renderer. cmd/agora-bench prints every
// table and EXPERIMENTS.md records them. No experiment reads a clock, so
// the tables are a function of the seed and the scale.
package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/metrics"
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
		{"E11", "Multi-modal: feed matching work per item", E11FeedMatching},
		{"E12", "Agora scale & churn (overlay routing)", E12ScaleChurn},
		{"E13", "Optimizer: multi-objective plan quality", E13MultiObjective},
		{"E15", "Ablation: auction vs bilateral negotiation", E15AuctionVsBilateral},
		{"E16", "Ablation: reputation learning (greengrocer loop)", E16ReputationLearning},
		{"E17", "Ablation: LSH vector-index parameters", E17LSHAblation},
		{"E18", "Integration: registry vs overlay discovery", E18DiscoveryVsRegistry},
		{"E19", "Personalization: risk-profile recovery & use", E19RiskProfiling},
		{"E21", "Pipeline: the market trip in virtual time & hedged tail latency", E21ParallelFanout},
	}
}

// RunAll executes the suite at the given scale, rendering each table: the
// experiments whose IDs are in only, or all of them when only is empty. It
// returns nil when only matches nothing.
func RunAll(w io.Writer, seed int64, scale float64, only map[string]bool) []*Result {
	var out []*Result
	for _, e := range Suite() {
		if len(only) > 0 && !only[e.ID] {
			continue
		}
		fmt.Fprintf(w, "## %s — %s\n\n", e.ID, e.Title)
		r := e.Run(seed, scale)
		r.Render(w)
		out = append(out, r)
	}
	return out
}

// scaleInt scales a base count, with a floor.
func scaleInt(base int, scale float64, min int) int {
	n := int(float64(base) * scale)
	if n < min {
		n = min
	}
	return n
}

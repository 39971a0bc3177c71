package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/qos"
	"repro/internal/uncertainty"
)

// E13MultiObjective compares plan-selection methods on a randomized source
// market: the Pareto front's hypervolume vs the single plan chosen by
// weighted-sum scalarization vs a greedy cheapest-first baseline.
func E13MultiObjective(seed int64, scale float64) *Result {
	r := rand.New(rand.NewSource(seed + 6))
	trials := scaleInt(25, scale, 8)
	table := metrics.NewTable("E13: multi-objective plan quality (hypervolume, ref price=20 latency=10s)",
		"method", "hypervolume", "front size", "best-plan completeness")
	headline := map[string]float64{}

	var hvPareto, hvWeighted, hvGreedy, frontSize, bestComp float64
	for trial := 0; trial < trials; trial++ {
		nSources := 8 + r.Intn(4)
		var cands []optimizer.SourceEstimate
		for i := 0; i < nSources; i++ {
			cands = append(cands, optimizer.SourceEstimate{
				Source:      fmt.Sprintf("s%02d", i),
				Coverage:    uncertainty.PriorBelief(0.15+0.6*r.Float64(), 10+r.Float64()*40),
				Price:       uncertainty.MakeInterval(0.5+r.Float64()*2, 1+r.Float64()*5),
				Latency:     uncertainty.MakeInterval(0.1+r.Float64(), 0.5+r.Float64()*3),
				Trust:       uncertainty.PriorBelief(0.5+0.4*r.Float64(), 15),
				Premium:     1 + r.Float64(),
				PenaltyRate: 0.3 + 0.4*r.Float64(),
			})
		}
		front := optimizer.ParetoPlans(cands, 5)
		hvPareto += optimizer.Hypervolume(front, 20, 10)
		frontSize += float64(len(front))

		obj := optimizer.Objective{Weights: qos.DefaultWeights(), Risk: uncertainty.Neutral()}
		if best, err := optimizer.Best(cands, obj, 5); err == nil {
			hvWeighted += optimizer.Hypervolume([]optimizer.Plan{best}, 20, 10)
			bestComp += best.Predicted().Completeness
		}
		// Greedy-cheap baseline: add cheapest sources until 3.
		sorted := append([]optimizer.SourceEstimate{}, cands...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j].Price.Mid() < sorted[j-1].Price.Mid(); j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		greedy := optimizer.Plan{Sources: sorted[:3]}
		hvGreedy += optimizer.Hypervolume([]optimizer.Plan{greedy}, 20, 10)
	}
	n := float64(trials)
	table.AddRow("pareto-front", hvPareto/n, frontSize/n, "")
	table.AddRow("weighted-sum best", hvWeighted/n, 1, bestComp/n)
	table.AddRow("greedy-cheapest-3", hvGreedy/n, 1, "")
	headline["hv_pareto"] = hvPareto / n
	headline["hv_weighted"] = hvWeighted / n
	headline["hv_greedy"] = hvGreedy / n
	return &Result{ID: "E13", Table: table, Headline: headline}
}

package optimizer

import (
	"math"
	"sort"

	"repro/internal/qos"
	"repro/internal/uncertainty"
)

// Plan search. For small candidate sets we enumerate exhaustively; larger
// ones use greedy marginal-gain construction (the classic submodular
// heuristic — completeness composes with diminishing returns, so greedy is
// near-optimal) and a beam refinement.

// maxExhaustive bounds exhaustive enumeration (2^n subsets).
const maxExhaustive = 12

// Best returns the highest-scoring plan under the objective, with at most
// maxSources sources (0 = unbounded).
func Best(cands []SourceEstimate, obj Objective, maxSources int) (Plan, error) {
	if len(cands) == 0 {
		return Plan{}, ErrNoSources
	}
	if len(cands) <= maxExhaustive {
		return bestExhaustive(cands, obj, maxSources), nil
	}
	return bestGreedy(cands, obj, maxSources), nil
}

func bestExhaustive(cands []SourceEstimate, obj Objective, maxSources int) Plan {
	n := len(cands)
	// Every subset is scored out of one slice; only one that improves on the
	// best so far is copied, into the plan returned.
	trial := Plan{Sources: make([]SourceEstimate, 0, n)}
	var best Plan
	bestScore := math.Inf(-1)
	for mask := 1; mask < 1<<n; mask++ {
		if maxSources > 0 && popcount(mask) > maxSources {
			continue
		}
		trial.Sources = trial.Sources[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				trial.Sources = append(trial.Sources, cands[i])
			}
		}
		if s := obj.Score(trial); s > bestScore {
			bestScore = s
			if best.Sources == nil {
				best.Sources = make([]SourceEstimate, 0, n)
			}
			best.Sources = append(best.Sources[:0], trial.Sources...)
		}
	}
	return best
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func bestGreedy(cands []SourceEstimate, obj Objective, maxSources int) Plan {
	limit := len(cands)
	if maxSources > 0 && maxSources < limit {
		limit = maxSources
	}
	// The plan has room for every source it can take, so a trial — the plan
	// so far and one more — is written into its spare capacity.
	plan := Plan{Sources: make([]SourceEstimate, 0, limit)}
	used := make([]bool, len(cands))
	cur := math.Inf(-1)
	for len(plan.Sources) < limit {
		bestIdx, bestScore := -1, cur
		for i, c := range cands {
			if used[i] {
				continue
			}
			if s := obj.Score(Plan{Sources: append(plan.Sources, c)}); s > bestScore {
				bestScore = s
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		plan.Sources = append(plan.Sources, cands[bestIdx])
		cur = bestScore
	}
	return plan
}

// ParetoPlans enumerates candidate plans (bounded subsets) and returns the
// Pareto-optimal set over (price asc, completeness desc, latency asc). This
// is the "set of rational choices" a user picks a trade-off from — the
// paper's multi-objective optimization combined with QoS policies.
func ParetoPlans(cands []SourceEstimate, maxSources int) []Plan {
	if len(cands) == 0 {
		return nil
	}
	n := len(cands)
	var plans []Plan
	if n <= maxExhaustive {
		for mask := 1; mask < 1<<n; mask++ {
			if maxSources > 0 && popcount(mask) > maxSources {
				continue
			}
			var p Plan
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					p.Sources = append(p.Sources, cands[i])
				}
			}
			plans = append(plans, p)
		}
	} else {
		// Sample the lattice: singletons, prefix-greedy chains by each
		// criterion.
		for i := range cands {
			plans = append(plans, Plan{Sources: []SourceEstimate{cands[i]}})
		}
		orders := []func(a, b SourceEstimate) bool{
			func(a, b SourceEstimate) bool { return a.Price.Mid() < b.Price.Mid() },
			func(a, b SourceEstimate) bool { return a.Coverage.Mean() > b.Coverage.Mean() },
			func(a, b SourceEstimate) bool { return a.Latency.Hi < b.Latency.Hi },
		}
		for _, less := range orders {
			sorted := append([]SourceEstimate{}, cands...)
			sort.Slice(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
			limit := maxSources
			if limit <= 0 || limit > len(sorted) {
				limit = len(sorted)
			}
			for k := 2; k <= limit; k++ {
				plans = append(plans, Plan{Sources: append([]SourceEstimate{}, sorted[:k]...)})
			}
		}
	}
	return paretoFilter(plans)
}

func paretoFilter(plans []Plan) []Plan {
	preds := make([]qos.Vector, len(plans))
	for i := range plans {
		preds[i] = plans[i].Predicted()
	}
	var out []Plan
	for i := range plans {
		dominated := false
		for j := range plans {
			if i == j {
				continue
			}
			if preds[j].Dominates(preds[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, plans[i])
		}
	}
	return out
}

// Hypervolume computes the 3D hypervolume (price, completeness, latency)
// dominated by the plan set relative to a reference point (refPrice,
// 0 completeness, refLatencySec) — the standard multi-objective quality
// indicator experiment E13 reports. Larger is better.
func Hypervolume(plans []Plan, refPrice, refLatencySec float64) float64 {
	type pt struct{ price, comp, lat float64 }
	var pts []pt
	for _, p := range plans {
		v := p.Predicted()
		lat := v.Latency.Seconds()
		if v.Price > refPrice || lat > refLatencySec {
			continue
		}
		pts = append(pts, pt{v.Price, v.Completeness, lat})
	}
	if len(pts) == 0 {
		return 0
	}
	// Monte-Carlo-free exact-ish computation by grid sweep over the two
	// "cost" axes; completeness is the value axis.
	// Sort by price; for each price cell, the best achievable completeness
	// among plans within (price, latency) bounds integrates the volume.
	const grid = 64
	var vol float64
	for i := 0; i < grid; i++ {
		price := refPrice * (float64(i) + 0.5) / grid
		for j := 0; j < grid; j++ {
			lat := refLatencySec * (float64(j) + 0.5) / grid
			best := 0.0
			for _, p := range pts {
				if p.price <= price && p.lat <= lat && p.comp > best {
					best = p.comp
				}
			}
			vol += best
		}
	}
	cell := (refPrice / grid) * (refLatencySec / grid)
	return vol * cell
}

// Reoptimize re-plans mid-flight: sources in `failed` are dropped from the
// remaining candidate pool and a fresh plan is chosen for the uncovered
// completeness mass. alreadyCovered is the completeness fraction delivered
// so far.
func Reoptimize(cands []SourceEstimate, failed map[string]bool, alreadyCovered float64, obj Objective, maxSources int) (Plan, error) {
	var remaining []SourceEstimate
	for _, c := range cands {
		if !failed[c.Source] {
			remaining = append(remaining, c)
		}
	}
	if len(remaining) == 0 {
		return Plan{}, ErrNoSources
	}
	// Shrink each candidate's marginal value by what is already covered:
	// coverage' = coverage * (1 - alreadyCovered).
	if alreadyCovered > 0 {
		scale := 1 - alreadyCovered
		if scale < 0 {
			scale = 0
		}
		for i := range remaining {
			b := remaining[i].Coverage
			m := b.Mean() * scale
			remaining[i].Coverage = uncertainty.PriorBelief(m, b.Strength()+2)
		}
	}
	return Best(remaining, obj, maxSources)
}

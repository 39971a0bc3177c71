package optimizer

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/qos"
	"repro/internal/uncertainty"
)

// referenceExhaustive and referenceGreedy are the plan searches as they were
// before they scored subsets out of one slice: a fresh plan built per subset,
// per trial. Best must still choose what they choose.
func referenceExhaustive(cands []SourceEstimate, obj Objective, maxSources int) Plan {
	n := len(cands)
	var best Plan
	bestScore := math.Inf(-1)
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
		if s := obj.Score(p); s > bestScore {
			bestScore = s
			best = p
		}
	}
	return best
}

func referenceGreedy(cands []SourceEstimate, obj Objective, maxSources int) Plan {
	var plan Plan
	used := make([]bool, len(cands))
	cur := math.Inf(-1)
	for {
		if maxSources > 0 && len(plan.Sources) >= maxSources {
			break
		}
		bestIdx, bestScore := -1, cur
		for i, c := range cands {
			if used[i] {
				continue
			}
			trial := Plan{Sources: append(append([]SourceEstimate{}, plan.Sources...), c)}
			if s := obj.Score(trial); s > bestScore {
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

// searchFixtures are the candidate sets of this package's other tests, and
// eight sources that differ in every dimension.
func searchFixtures() map[string][]SourceEstimate {
	same, graded, eight := []SourceEstimate{}, []SourceEstimate{}, []SourceEstimate{}
	for i := 0; i < 6; i++ {
		same = append(same, est(fmt.Sprintf("s%d", i), 0.4, 1, 1))
	}
	for i := 0; i < 30; i++ {
		graded = append(graded, est(fmt.Sprintf("s%02d", i), 0.1+0.02*float64(i%10), 1+float64(i%5), 1))
	}
	for i := 0; i < 8; i++ {
		e := est(fmt.Sprintf("m%d", i), 0.15+0.09*float64(i), 0.5+0.7*float64((i*3)%8), 0.3+0.2*float64((i*5)%8))
		e.Trust = uncertainty.PriorBelief(0.5+0.05*float64(i), 4+float64(i))
		eight = append(eight, e)
	}
	return map[string][]SourceEstimate{
		"singles": {est("cheap-partial", 0.3, 1, 0.5), est("rich-pricey", 0.8, 6, 1), est("mid", 0.5, 2, 1)},
		"budget":  {est("pricey", 0.9, 50, 1), est("cheap", 0.4, 1, 1)},
		"same":    same,
		"graded":  graded,
		"eight":   eight,
	}
}

func TestSearchesChooseTheReferencePlans(t *testing.T) {
	budget := balancedObj()
	budget.Budget = 5
	nothing := balancedObj()
	nothing.Budget = 1e-9 // every plan is over budget: all score -1
	objs := map[string]Objective{
		"balanced": balancedObj(),
		"budget":   budget,
		"nothing":  nothing,
		"averse":   {Weights: qos.DefaultWeights(), Risk: uncertainty.Averse(30)},
		"seeking":  {Weights: qos.DefaultWeights(), Risk: uncertainty.Seeking(0.5)},
	}
	same := func(got, want Plan) bool {
		return len(got.Sources) == len(want.Sources) && (len(want.Sources) == 0 || reflect.DeepEqual(got.Sources, want.Sources))
	}
	for name, cands := range searchFixtures() {
		for oname, obj := range objs {
			for _, maxSources := range []int{0, 1, 2, 4, 5} {
				if len(cands) <= maxExhaustive {
					if got, want := bestExhaustive(cands, obj, maxSources), referenceExhaustive(cands, obj, maxSources); !same(got, want) {
						t.Errorf("%s/%s/%d: exhaustive chose %v, reference %v", name, oname, maxSources, got.Sources, want.Sources)
					}
				}
				if got, want := bestGreedy(cands, obj, maxSources), referenceGreedy(cands, obj, maxSources); !same(got, want) {
					t.Errorf("%s/%s/%d: greedy chose %v, reference %v", name, oname, maxSources, got.Sources, want.Sources)
				}
			}
		}
	}
}

// TestBestAllocBudget: a plan search allocates its scratch and its answer,
// not a plan per subset (eight candidates, at most four taken: 162 subsets,
// about 550 allocations before).
func TestBestAllocBudget(t *testing.T) {
	fixtures := searchFixtures()
	for name, maxSources := range map[string]int{"eight": 4, "graded": 5} {
		cands, obj := fixtures[name], balancedObj()
		got := testing.AllocsPerRun(50, func() {
			if plan, err := Best(cands, obj, maxSources); err != nil || len(plan.Sources) == 0 {
				t.Fatalf("%s: %v, %d sources", name, err, len(plan.Sources))
			}
		})
		if got > 2 {
			t.Errorf("Best over %s (%d candidates): %.0f allocations per call, budget 2", name, len(cands), got)
		}
	}
}

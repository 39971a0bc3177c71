package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

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

// TestBestAllocBudget: a plan search allocates its answer and, greedy, its
// marks — not a plan per subset (eight candidates, at most four taken: 162
// subsets, about 550 allocations when each subset was a fresh plan; 2 when
// they were scored out of one scratch plan, now 1).
func TestBestAllocBudget(t *testing.T) {
	fixtures := searchFixtures()
	for name, c := range map[string]struct{ maxSources, budget int }{"eight": {4, 1}, "graded": {5, 2}} {
		cands, obj := fixtures[name], balancedObj()
		got := testing.AllocsPerRun(50, func() {
			if plan, err := Best(cands, obj, c.maxSources); err != nil || len(plan.Sources) == 0 {
				t.Fatalf("%s: %v, %d sources", name, err, len(plan.Sources))
			}
		})
		if got > float64(c.budget) {
			t.Errorf("Best over %s (%d candidates): %.0f allocations per call, budget %d", name, len(cands), got, c.budget)
		}
	}
}

// referencePredicted, referenceVariance, referenceShortfall and
// referenceScore are Plan.Predicted, Plan.Variance,
// Plan.ExpectedShortfallCost and Objective.Score as they were before a plan
// was scored from per-source terms: every member's Beta moments re-derived
// per plan. The scores must keep their bits.
func referencePredicted(p Plan) qos.Vector {
	if len(p.Sources) == 0 {
		return qos.Vector{}
	}
	missing := 1.0
	var price, lat float64
	var trustW, trustSum float64
	var worstStale time.Duration
	for _, s := range p.Sources {
		c := s.Coverage.Mean() * s.Trust.Mean()
		missing *= 1 - c
		premium := s.Premium
		if premium < 1 {
			premium = 1
		}
		price += s.Price.Mid() * premium
		if l := s.Latency.Hi; l > lat {
			lat = l
		}
		trustSum += c * s.Trust.Mean()
		trustW += c
		if s.Staleness > worstStale {
			worstStale = s.Staleness
		}
	}
	trust := 0.5
	if trustW > 0 {
		trust = trustSum / trustW
	}
	return qos.Vector{
		Latency:      time.Duration(lat * float64(time.Second)),
		Completeness: 1 - missing,
		Freshness:    worstStale,
		Trust:        trust,
		Price:        price,
	}
}

func referenceVariance(p Plan) float64 {
	prod := 1.0
	var rel float64
	for _, s := range p.Sources {
		m := 1 - s.Coverage.Mean()
		v := s.Coverage.Variance()
		prod *= m
		if m > 1e-9 {
			rel += v / (m * m)
		}
	}
	return prod * prod * rel
}

func referenceShortfall(p Plan) float64 {
	var total float64
	for _, s := range p.Sources {
		sd := math.Sqrt(s.Coverage.Variance())
		premium := s.Premium
		if premium < 1 {
			premium = 1
		}
		paid := s.Price.Mid() * premium
		expectedShortfall := sd / math.Sqrt(2*math.Pi)
		total += s.PenaltyRate * paid * expectedShortfall
	}
	return total
}

func referenceScore(o Objective, p Plan) float64 {
	pred := referencePredicted(p)
	pred.Price -= referenceShortfall(p)
	if pred.Price < 0 {
		pred.Price = 0
	}
	if o.Budget > 0 && pred.Price > o.Budget {
		return -1
	}
	base := o.Weights.Scalarize(pred)
	return o.Risk.CertaintyEquivalent(base, referenceVariance(p))
}

// randomEstimates draws n sources, most of them ordinary and some at an edge
// of the formulas: a premium below 1 (clamped), a coverage mean within 1e-9
// of 1 (left out of the relative variance), a trust mean of 0 (no trust
// weight), a price large enough to break any budget.
func randomEstimates(r *rand.Rand, n int) []SourceEstimate {
	out := make([]SourceEstimate, n)
	for i := range out {
		lo := r.Float64() * 5
		e := SourceEstimate{
			Source:      fmt.Sprintf("r%d", i),
			Coverage:    uncertainty.BetaBelief{Alpha: 0.1 + r.Float64()*40, Beta: 0.1 + r.Float64()*40},
			Price:       uncertainty.MakeInterval(lo, lo+r.Float64()*5),
			Latency:     uncertainty.MakeInterval(r.Float64(), 1+r.Float64()*3),
			Trust:       uncertainty.BetaBelief{Alpha: 0.1 + r.Float64()*20, Beta: 0.1 + r.Float64()*20},
			Staleness:   time.Duration(r.Int63n(int64(72 * time.Hour))),
			Premium:     r.Float64() * 2,
			PenaltyRate: r.Float64(),
		}
		switch r.Intn(6) {
		case 0:
			e.Coverage = uncertainty.BetaBelief{Alpha: 1e12, Beta: 0.5}
		case 1:
			e.Trust = uncertainty.BetaBelief{Alpha: 0, Beta: 1}
		case 2:
			e.Price = uncertainty.MakeInterval(1e3, 1e4)
		}
		out[i] = e
	}
	return out
}

// TestScoreMatchesReference holds plan scoring to the reference formulas bit
// for bit: every subset of the search fixtures (of the first twelve sources
// where there are more) and of seeded random estimates, in index order, under
// each risk attitude, with and without a budget that some plans break, and
// with the trust dimension weighted and not.
func TestScoreMatchesReference(t *testing.T) {
	var objs []Objective
	for _, risk := range []uncertainty.RiskAttitude{uncertainty.Neutral(), uncertainty.Averse(30), uncertainty.Seeking(0.5)} {
		for _, budget := range []float64{0, 5} {
			noTrust := qos.DefaultWeights()
			noTrust.Trust = 0
			for _, w := range []qos.Weights{qos.DefaultWeights(), noTrust} {
				objs = append(objs, Objective{Weights: w, Risk: risk, Budget: budget})
			}
		}
	}
	sets := map[string][]SourceEstimate{}
	for name, cands := range searchFixtures() {
		sets[name] = cands[:min(len(cands), maxExhaustive)]
	}
	r := rand.New(rand.NewSource(40))
	for i := 0; i < 8; i++ {
		sets[fmt.Sprintf("random%d", i)] = randomEstimates(r, 10)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	overBudget := 0
	for name, cands := range sets {
		for mask := 0; mask < 1<<len(cands); mask++ {
			var p Plan
			for i := range cands {
				if mask&(1<<i) != 0 {
					p.Sources = append(p.Sources, cands[i])
				}
			}
			if got, want := p.Predicted(), referencePredicted(p); got != want {
				t.Fatalf("%s/%b: predicted %+v, reference %+v", name, mask, got, want)
			}
			if got, want := p.Variance(), referenceVariance(p); !same(got, want) {
				t.Fatalf("%s/%b: variance %v, reference %v", name, mask, got, want)
			}
			if got, want := p.ExpectedShortfallCost(), referenceShortfall(p); !same(got, want) {
				t.Fatalf("%s/%b: shortfall %v, reference %v", name, mask, got, want)
			}
			for _, o := range objs {
				got, want := o.Score(p), referenceScore(o, p)
				if !same(got, want) {
					t.Fatalf("%s/%b under %+v: score %v, reference %v", name, mask, o, got, want)
				}
				if want == -1 {
					overBudget++
				}
			}
		}
	}
	if overBudget == 0 {
		t.Fatal("no plan broke a budget")
	}
}

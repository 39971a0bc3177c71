// Package optimizer implements agora query optimization: choosing which
// information sources to contract, at what QoS levels, for a decomposed
// query — under uncertainty about source coverage, cost and behaviour. It
// is where three of the paper's threads meet: uncertainty (estimates are
// beliefs and intervals, not numbers), QoS (plans are points in QoS space,
// optimization is multi-objective), and negotiation (plan cost reflects SLA
// premiums and expected breach compensation).
package optimizer

import (
	"errors"
	"math"
	"time"

	"repro/internal/qos"
	"repro/internal/uncertainty"
)

// SourceEstimate is what the optimizer believes about one candidate source
// for the query at hand.
type SourceEstimate struct {
	Source string
	// Coverage is the belief about the fraction of the relevant answer set
	// this source alone can deliver.
	Coverage uncertainty.BetaBelief
	// Price is the uncertain price the source will charge (post-
	// negotiation estimate).
	Price uncertainty.Interval
	// Latency is the uncertain response latency in seconds.
	Latency uncertainty.Interval
	// Trust is the belief the source delivers correct content.
	Trust uncertainty.BetaBelief
	// Staleness is the typical age of this source's content.
	Staleness time.Duration
	// Premium and PenaltyRate are the SLA terms the source offers.
	Premium     float64
	PenaltyRate float64
}

// Plan is a chosen subset of sources.
type Plan struct {
	Sources []SourceEstimate
}

// Predicted aggregates a plan's expected QoS vector. Completeness composes
// as 1-Π(1-c_i) under an independence assumption (sources hold overlapping
// but independently drawn slices of the answer set); latency is the max
// (sources run in parallel); price and premium costs add; trust is the
// coverage-weighted mean; freshness is the worst staleness.
func (p Plan) Predicted() qos.Vector {
	a := sumOf(p.Sources)
	return a.predicted()
}

// Variance approximates the variance of the plan's completeness (the main
// uncertain payoff dimension) by propagating per-source Beta variances
// through the product form.
func (p Plan) Variance() float64 {
	a := sumOf(p.Sources)
	return a.variance()
}

// ExpectedShortfallCost estimates the expected compensation the plan's
// contracts return on breach (negotiation-aware optimization): each source
// breaches its coverage promise with probability ~P(coverage < promised),
// refunding penalty*premium*price*E[shortfall|breach]. We promise each
// source its posterior-mean coverage, so breach probability ≈ 0.5 scaled by
// belief confidence.
func (p Plan) ExpectedShortfallCost() float64 {
	a := sumOf(p.Sources)
	return a.short
}

// terms is what one source adds to each of a plan's aggregates: derived once
// per candidate, so a plan search scores every subset by adding, not by
// re-deriving its members' Beta moments.
type terms struct {
	c     float64 // deliverable coverage: advertised coverage discounted by trust
	paid  float64 // price with the SLA premium (at least 1×)
	lat   float64 // latency upper bound, seconds
	trust float64 // c · trust mean
	short float64 // expected breach compensation
	miss  float64 // m = 1 - coverage mean
	rel   float64 // relative coverage variance v/m², 0 where m ≤ 1e-9
	stale time.Duration
}

func termsOf(s SourceEstimate) terms {
	cover, trust, v := s.Coverage.Mean(), s.Trust.Mean(), s.Coverage.Variance()
	// Deliverable coverage is the advertised coverage discounted by the
	// belief the source honors its promises: a shirker's shop window
	// counts for less (how the greengrocer loop steers future plans).
	c := cover * trust
	premium := s.Premium
	if premium < 1 {
		premium = 1
	}
	paid := s.Price.Mid() * premium
	// Expected shortfall of a promise at the mean is ~sd/sqrt(2*pi)
	// (normal approximation, one-sided).
	short := s.PenaltyRate * paid * (math.Sqrt(v) / math.Sqrt(2*math.Pi))
	t := terms{c: c, paid: paid, lat: s.Latency.Hi, trust: c * trust, short: short, miss: 1 - cover, stale: s.Staleness}
	if t.miss > 1e-9 {
		t.rel = v / (t.miss * t.miss)
	}
	return t
}

// sum is a plan's aggregates, its sources' terms added in plan order.
type sum struct {
	n                int
	missing, prod    float64 // Π(1-c_i) and Π m_i
	price, lat       float64
	trustW, trustSum float64
	short, rel       float64
	stale            time.Duration
}

func newSum() sum { return sum{missing: 1, prod: 1} }

func sumOf(sources []SourceEstimate) sum {
	a := newSum()
	for _, s := range sources {
		t := termsOf(s)
		a.add(&t)
	}
	return a
}

func (a *sum) add(t *terms) {
	a.n++
	a.missing *= 1 - t.c
	a.price += t.paid
	if t.lat > a.lat {
		a.lat = t.lat
	}
	a.trustSum += t.trust
	a.trustW += t.c
	a.stale = max(a.stale, t.stale)
	a.short += t.short
	a.prod *= t.miss
	a.rel += t.rel
}

func (a *sum) predicted() qos.Vector {
	if a.n == 0 {
		return qos.Vector{}
	}
	trust := 0.5
	if a.trustW > 0 {
		trust = a.trustSum / a.trustW
	}
	return qos.Vector{
		Latency:      time.Duration(a.lat * float64(time.Second)),
		Completeness: 1 - a.missing,
		Freshness:    a.stale,
		Trust:        trust,
		Price:        a.price,
	}
}

// variance is Var(1-Π(1-C_i)) = Var(Π(1-C_i)) by the first-order delta
// method, the Π terms treated independently.
func (a *sum) variance() float64 { return a.prod * a.prod * a.rel }

// Optimizer errors.
var ErrNoSources = errors.New("optimizer: no candidate sources")

// Objective scores a plan for a particular user.
type Objective struct {
	Weights qos.Weights
	Risk    uncertainty.RiskAttitude
	// Budget caps acceptable plan price (0 = unlimited).
	Budget float64
}

// Score evaluates a plan: the scalarized QoS utility of the predicted
// vector, risk-adjusted by the completeness variance through the certainty
// equivalent, minus normalized expected breach compensation already folded
// into effective price.
func (o Objective) Score(p Plan) float64 {
	a := sumOf(p.Sources)
	return o.score(&a)
}

func (o Objective) score(a *sum) float64 {
	pred := a.predicted()
	// Breach compensation flows back to the consumer, lowering the
	// effective price.
	pred.Price -= a.short
	if pred.Price < 0 {
		pred.Price = 0
	}
	if o.Budget > 0 && pred.Price > o.Budget {
		return -1
	}
	base := o.Weights.Scalarize(pred)
	return o.Risk.CertaintyEquivalent(base, a.variance())
}

// Package negotiate implements trading negotiation for the Open Agora. The
// paper's Negotiation section: queries and their results are commodities;
// query answers are "traded in the network until deals are struck and
// contracts are signed with some information sources for specific levels of
// QoS", possibly recursively through intermediaries (subcontracting).
//
// The protocol is alternating offers over multi-issue packages (QoS
// vectors). Concession tactics follow the classic families from the
// automated-negotiation literature the paper cites (Rosenschein & Zlotkin):
// time-dependent (Boulware / Linear / Conceder), behaviour-dependent
// (tit-for-tat), plus non-negotiating baselines (take-first, posted-price).
package negotiate

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/qos"
)

// Utility scores a package (a full QoS vector including price) in [0,1]
// from one party's perspective.
type Utility interface {
	Of(p qos.Vector) float64
}

// BuyerUtility evaluates packages with the consumer's QoS weights.
type BuyerUtility struct {
	W qos.Weights
}

// Of implements Utility.
func (b BuyerUtility) Of(p qos.Vector) float64 { return b.W.Scalarize(p) }

// SellerUtility is profit-oriented: utility grows with price and shrinks
// with the cost of the promised service level. Cost returns the provider's
// cost of delivering the promise; Scale normalizes profit into (0,1).
type SellerUtility struct {
	Cost  func(qos.Vector) float64
	Scale float64 // profit at which utility saturates toward 1
}

// Of implements Utility.
func (s SellerUtility) Of(p qos.Vector) float64 {
	profit := p.Price - s.Cost(p)
	if profit <= 0 {
		return 0
	}
	sc := s.Scale
	if sc <= 0 {
		sc = 10
	}
	u := profit / sc
	if u > 1 {
		u = 1
	}
	return u
}

// StandardCost is a convenient provider cost model: base cost plus
// convex effort in completeness and trust, plus a rush premium for tight
// latency promises.
func StandardCost(base, effort float64) func(qos.Vector) float64 {
	return func(v qos.Vector) float64 {
		c := base + effort*(v.Completeness*v.Completeness+v.Trust*v.Trust)
		if v.Latency > 0 && v.Latency < time.Second {
			c += effort * float64(time.Second-v.Latency) / float64(time.Second)
		}
		return c
	}
}

// Tactic decides the target utility (fraction of the distance between the
// reservation utility and 1) an agent demands at a given round.
type Tactic interface {
	// Target returns the demanded utility in [0,1] at round (0-based) of
	// maxRounds. oppConcession is the opponent's total observed concession
	// so far in the agent's own utility terms (0 if unknown).
	Target(round, maxRounds int, oppConcession float64) float64
	Name() string
}

// TimeDependent implements the polynomial concession family:
// demanded(t) = 1 - (t/T)^(1/Beta). Beta < 1 concedes late (Boulware),
// Beta = 1 linearly, Beta > 1 early (Conceder).
type TimeDependent struct {
	Beta  float64
	Label string
}

// The named tactics are boxed once, so handing one out allocates nothing.
var boulware, linear, conceder Tactic = TimeDependent{Beta: 0.3, Label: "boulware"},
	TimeDependent{Beta: 1, Label: "linear"}, TimeDependent{Beta: 3, Label: "conceder"}

// Boulware returns a stubborn time-dependent tactic.
func Boulware() Tactic { return boulware }

// Linear returns a linear-concession tactic.
func Linear() Tactic { return linear }

// Conceder returns an eager-concession tactic.
func Conceder() Tactic { return conceder }

// Target implements Tactic.
func (td TimeDependent) Target(round, maxRounds int, _ float64) float64 {
	if maxRounds <= 1 {
		return 0
	}
	t := float64(round) / float64(maxRounds-1)
	if t > 1 {
		t = 1
	}
	beta := td.Beta
	if beta <= 0 {
		beta = 1
	}
	return 1 - math.Pow(t, 1/beta)
}

// Name implements Tactic.
func (td TimeDependent) Name() string {
	if td.Label != "" {
		return td.Label
	}
	return fmt.Sprintf("time(%.2g)", td.Beta)
}

// ResourcePool is bargaining stamina shared across an agent's concurrent
// negotiations: every round spent burns one unit. Resource-dependent
// tactics concede as the pool drains — an agent juggling many negotiations
// (or short on time) softens faster, regardless of the round count of any
// single session.
type ResourcePool struct {
	Total     float64
	remaining float64
	set       bool
}

// NewResourcePool returns a pool with the given stamina units.
func NewResourcePool(total float64) *ResourcePool {
	if total <= 0 {
		total = 1
	}
	return &ResourcePool{Total: total, remaining: total, set: true}
}

// Spend burns units (floored at zero).
func (rp *ResourcePool) Spend(units float64) {
	rp.remaining -= units
	if rp.remaining < 0 {
		rp.remaining = 0
	}
}

// Fraction returns the remaining fraction in [0,1].
func (rp *ResourcePool) Fraction() float64 {
	if !rp.set || rp.Total <= 0 {
		return 1
	}
	return rp.remaining / rp.Total
}

// ResourceDependent concedes with the pool: demanded fraction equals the
// remaining resource fraction (full pool = demand everything, empty pool =
// accept anything), with each Target call spending one unit per round so
// standalone use still converges.
type ResourceDependent struct {
	Pool *ResourcePool
}

// Target implements Tactic.
func (rd ResourceDependent) Target(round, maxRounds int, _ float64) float64 {
	if rd.Pool == nil {
		// Degenerate: behave linearly on rounds.
		return Linear().Target(round, maxRounds, 0)
	}
	rd.Pool.Spend(1)
	f := rd.Pool.Fraction()
	// Spend the last scraps fast so sessions close before exhaustion.
	return f * f
}

// Name implements Tactic.
func (rd ResourceDependent) Name() string { return "resource" }

// TitForTat mirrors the opponent's concessions: it starts demanding
// everything and lowers its demand by the concession the opponent has made,
// scaled by Reciprocity. A time-dependent floor guarantees progress against
// stonewallers.
type TitForTat struct {
	Reciprocity float64
}

// Target implements Tactic.
func (tt TitForTat) Target(round, maxRounds int, oppConcession float64) float64 {
	rec := tt.Reciprocity
	if rec <= 0 {
		rec = 1
	}
	demand := 1 - rec*oppConcession
	// Late-game floor: concede linearly over the last third regardless, so
	// two stubborn TFTs still close.
	if maxRounds > 1 {
		t := float64(round) / float64(maxRounds-1)
		if t > 2.0/3 {
			floor := 1 - (t-2.0/3)*3
			if demand > floor {
				demand = floor
			}
		}
	}
	if demand < 0 {
		demand = 0
	}
	if demand > 1 {
		demand = 1
	}
	return demand
}

// Name implements Tactic.
func (tt TitForTat) Name() string { return "tit-for-tat" }

// Negotiator is one party in a session.
type Negotiator struct {
	Name        string
	U           Utility
	Reservation float64 // walk-away utility in [0,1)
	Tactic      Tactic
	Candidates  []qos.Vector // the package space this party can propose

	bestSeen  float64 // opponent's best offer so far, in own utility
	firstSeen float64 // opponent's first offer, in own utility
	haveSeen  bool
}

// demanded converts a tactic target (fraction above reservation) into an
// absolute utility demand.
func (n *Negotiator) demanded(round, maxRounds int) float64 {
	opp := 0.0
	if n.haveSeen {
		opp = n.bestSeen - n.firstSeen
		if opp < 0 {
			opp = 0
		}
	}
	frac := n.Tactic.Target(round, maxRounds, opp)
	return n.Reservation + frac*(1-n.Reservation)
}

// observe records an incoming offer for behaviour-dependent tactics.
func (n *Negotiator) observe(offer qos.Vector) {
	u := n.U.Of(offer)
	if !n.haveSeen {
		n.haveSeen = true
		n.firstSeen = u
		n.bestSeen = u
		return
	}
	if u > n.bestSeen {
		n.bestSeen = u
	}
}

// pricing is one party's utility of each of its candidates, computed once per
// negotiation, and the index of the first of its best.
type pricing struct {
	u    []float64
	best int
}

// price scores n's candidates into buf's backing array (a larger set
// allocates its own).
func (n *Negotiator) price(buf []float64) pricing {
	p := pricing{u: buf[:0]}
	for i, c := range n.Candidates {
		p.u = append(p.u, n.U.Of(c))
		if p.u[i] > p.u[p.best] {
			p.best = i
		}
	}
	return p
}

// propose picks the candidate with own utility >= demand that is most
// attractive so far to the opponent, approximated by similarity to the
// opponent's last offer (the classic trade-off heuristic). With no
// qualifying candidate it proposes its own best package. p is n's pricing.
func (n *Negotiator) propose(demand float64, oppLast *qos.Vector, p pricing) (qos.Vector, error) {
	if len(n.Candidates) == 0 {
		return qos.Vector{}, ErrNoCandidates
	}
	bestIdx := -1
	bestKey := math.Inf(-1)
	for i, u := range p.u {
		if u < demand {
			continue
		}
		var key float64
		if oppLast != nil {
			key = -packageDistance(n.Candidates[i], *oppLast)
		} else {
			key = -u // first round: least excess over demand (leave room)
		}
		if key > bestKey {
			bestKey = key
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		bestIdx = p.best
	}
	return n.Candidates[bestIdx], nil
}

// packageDistance is a scale-normalized distance between packages.
func packageDistance(a, b qos.Vector) float64 {
	dl := float64(a.Latency-b.Latency) / float64(10*time.Second)
	dc := a.Completeness - b.Completeness
	df := float64(a.Freshness-b.Freshness) / float64(24*time.Hour)
	dt := a.Trust - b.Trust
	dp := (a.Price - b.Price) / 20
	return math.Sqrt(dl*dl + dc*dc + df*df + dt*dt + dp*dp)
}

// Negotiation errors.
var (
	ErrNoCandidates = errors.New("negotiate: negotiator has no candidate packages")
	ErrNoDeal       = errors.New("negotiate: no deal reached")
)

// Deal is a successful negotiation result.
type Deal struct {
	Package       qos.Vector
	Rounds        int
	BuyerUtility  float64
	SellerUtility float64
	Transcript    []qos.Vector // offers in order, buyer first
}

// JointUtility is the sum of both parties' utilities — the efficiency
// measure experiment E4 reports.
func (d Deal) JointUtility() float64 { return d.BuyerUtility + d.SellerUtility }

// pricedInline is how many candidates a side Run prices on its stack: the
// market's 42-package grid fits.
const pricedInline = 64

// Run executes an alternating-offers session: buyer proposes on even
// rounds, seller on odd, up to maxRounds. An agent accepts an incoming
// offer if it meets what it would demand next round (the AC-next rule).
// Each party prices its candidates once, before the first round. The
// transcript is the session's one allocation (with at most pricedInline
// candidates a side).
func Run(buyer, seller *Negotiator, maxRounds int) (Deal, error) {
	if maxRounds <= 0 {
		maxRounds = 20
	}
	var buyerBuf, sellerBuf [pricedInline]float64
	buyerP, sellerP := buyer.price(buyerBuf[:]), seller.price(sellerBuf[:])
	transcript := make([]qos.Vector, 0, maxRounds)
	var last qos.Vector
	var lastOffer *qos.Vector
	for round := 0; round < maxRounds; round++ {
		proposer, responder, p := buyer, seller, buyerP
		if round%2 == 1 {
			proposer, responder, p = seller, buyer, sellerP
		}
		offer, err := proposer.propose(proposer.demanded(round, maxRounds), lastOffer, p)
		if err != nil {
			return Deal{}, err
		}
		transcript = append(transcript, offer)
		responder.observe(offer)
		// Responder accepts if the offer meets its next-round demand, or
		// beats its reservation on the final round.
		nextDemand := responder.demanded(round+1, maxRounds)
		accept := responder.U.Of(offer) >= nextDemand
		if round == maxRounds-1 {
			accept = responder.U.Of(offer) >= responder.Reservation
		}
		if accept {
			return Deal{
				Package:       offer,
				Rounds:        round + 1,
				BuyerUtility:  buyer.U.Of(offer),
				SellerUtility: seller.U.Of(offer),
				Transcript:    transcript,
			}, nil
		}
		last = offer
		lastOffer = &last
	}
	return Deal{Rounds: maxRounds, Transcript: transcript}, ErrNoDeal
}

// TakeFirst is the no-negotiation baseline: the consumer accepts the
// provider's opening offer if it clears the consumer's reservation.
func TakeFirst(buyer, seller *Negotiator) (Deal, error) {
	offer, err := seller.propose(seller.demanded(0, 2), nil, seller.price(nil))
	if err != nil {
		return Deal{}, err
	}
	if buyer.U.Of(offer) < buyer.Reservation {
		return Deal{Rounds: 1, Transcript: []qos.Vector{offer}}, ErrNoDeal
	}
	return Deal{
		Package:       offer,
		Rounds:        1,
		BuyerUtility:  buyer.U.Of(offer),
		SellerUtility: seller.U.Of(offer),
		Transcript:    []qos.Vector{offer},
	}, nil
}

// PostedPrice is the fixed-menu baseline: the provider posts a package (its
// median candidate by own utility); the consumer takes it or leaves it.
func PostedPrice(buyer, seller *Negotiator) (Deal, error) {
	if len(seller.Candidates) == 0 {
		return Deal{}, ErrNoCandidates
	}
	// Median-by-own-utility posted package.
	best, worst := 0, 0
	for i := range seller.Candidates {
		if seller.U.Of(seller.Candidates[i]) > seller.U.Of(seller.Candidates[best]) {
			best = i
		}
		if seller.U.Of(seller.Candidates[i]) < seller.U.Of(seller.Candidates[worst]) {
			worst = i
		}
	}
	mid := (seller.U.Of(seller.Candidates[best]) + seller.U.Of(seller.Candidates[worst])) / 2
	posted := seller.Candidates[best]
	bestGap := math.Inf(1)
	for _, c := range seller.Candidates {
		gap := math.Abs(seller.U.Of(c) - mid)
		if gap < bestGap {
			bestGap = gap
			posted = c
		}
	}
	if buyer.U.Of(posted) < buyer.Reservation {
		return Deal{Rounds: 1, Transcript: []qos.Vector{posted}}, ErrNoDeal
	}
	return Deal{
		Package:       posted,
		Rounds:        1,
		BuyerUtility:  buyer.U.Of(posted),
		SellerUtility: seller.U.Of(posted),
		Transcript:    []qos.Vector{posted},
	}, nil
}

// CandidateGrid builds the shared package space: a grid over completeness
// and price with the remaining dimensions fixed by the template.
func CandidateGrid(template qos.Vector, completeness []float64, prices []float64) []qos.Vector {
	out := make([]qos.Vector, 0, len(completeness)*len(prices))
	for _, c := range completeness {
		for _, p := range prices {
			v := template
			v.Completeness = c
			v.Price = p
			out = append(out, v)
		}
	}
	return out
}

package negotiate

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/qos"
)

// referencePropose is propose as it was before each party priced its
// candidates once per negotiation: every candidate scored on every call, and
// the best so far scored again for each.
func referencePropose(n *Negotiator, demand float64, oppLast *qos.Vector) (qos.Vector, error) {
	if len(n.Candidates) == 0 {
		return qos.Vector{}, ErrNoCandidates
	}
	bestIdx := -1
	bestKey := math.Inf(-1)
	ownBest := 0
	for i, c := range n.Candidates {
		u := n.U.Of(c)
		if u > n.U.Of(n.Candidates[ownBest]) {
			ownBest = i
		}
		if u < demand {
			continue
		}
		var key float64
		if oppLast != nil {
			key = -packageDistance(c, *oppLast)
		} else {
			key = -u
		}
		if key > bestKey {
			bestKey = key
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		bestIdx = ownBest
	}
	return n.Candidates[bestIdx], nil
}

// referenceRun is Run as it was before the transcript was allocated once, the
// last offer kept in place and the candidates priced once: a transcript grown
// by append, a fresh copy of each offer to point the next proposal at, and
// referencePropose.
func referenceRun(buyer, seller *Negotiator, maxRounds int) (Deal, error) {
	if maxRounds <= 0 {
		maxRounds = 20
	}
	var transcript []qos.Vector
	var lastOffer *qos.Vector
	for round := 0; round < maxRounds; round++ {
		proposer, responder := buyer, seller
		if round%2 == 1 {
			proposer, responder = seller, buyer
		}
		offer, err := referencePropose(proposer, proposer.demanded(round, maxRounds), lastOffer)
		if err != nil {
			return Deal{}, err
		}
		transcript = append(transcript, offer)
		responder.observe(offer)
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
		o := offer
		lastOffer = &o
	}
	return Deal{Rounds: maxRounds, Transcript: transcript}, ErrNoDeal
}

// TestRunMatchesReference holds Run's whole Deal — package, rounds, both
// utilities, every offer of the transcript — and its error to the reference
// for every tactic pair the package's tests use, at round limits from one up,
// on overlapping zones, on disjoint ones (ErrNoDeal at the last round), with
// no candidates on either side (the seller's lack shows only at round 1, so
// the buyer's opening offer can still be taken), with a buyer whose best
// package is tied (its fallback is the first of them) and on a grid of 100
// packages, more than Run prices on its stack.
func TestRunMatchesReference(t *testing.T) {
	tactics := map[string]func() Tactic{
		"boulware":    Boulware,
		"linear":      Linear,
		"conceder":    Conceder,
		"tit-for-tat": func() Tactic { return TitForTat{Reciprocity: 1} },
		"resource":    func() Tactic { return ResourceDependent{Pool: NewResourcePool(12)} },
		"resource0":   func() Tactic { return ResourceDependent{} },
	}
	type setup func(b, s *Negotiator)
	setups := map[string]setup{
		"overlap":              func(b, s *Negotiator) {},
		"disjoint":             func(b, s *Negotiator) { b.Reservation, s.Reservation = 0.99, 0.99 },
		"empty":                func(b, s *Negotiator) { b.Candidates = nil },
		"no seller candidates": func(b, s *Negotiator) { s.Candidates = nil },
		"tied best": func(b, s *Negotiator) { // the buyer's first best is not its last
			b.U = BuyerUtility{W: qos.Weights{Price: 2, Completeness: 3}}
			grid := stdGrid()
			for _, v := range stdGrid() {
				v.Trust = 0.9
				grid = append(grid, v)
			}
			b.Candidates, s.Candidates = grid, grid
		},
		"100 packages": func(b, s *Negotiator) {
			grid := CandidateGrid(qos.Vector{Latency: time.Second, Trust: 0.8},
				[]float64{0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0},
				[]float64{0.5, 0.75, 1, 1.5, 2, 3, 4, 5, 6, 8})
			b.Candidates, s.Candidates = grid, grid
		},
	}
	deals, noDeals := 0, 0
	for bn, bt := range tactics {
		for sn, st := range tactics {
			for name, set := range setups {
				for _, rounds := range []int{0, 1, 2, 3, 10, 20, 30} {
					run := func(f func(b, s *Negotiator, rounds int) (Deal, error)) (Deal, error) {
						b, s := stdBuyer(bt()), stdSeller(st())
						set(b, s)
						return f(b, s, rounds)
					}
					got, gerr := run(Run)
					want, werr := run(referenceRun)
					what := fmt.Sprintf("%s buyer, %s seller, %s, %d rounds", bn, sn, name, rounds)
					if !errors.Is(gerr, werr) || !errors.Is(werr, gerr) {
						t.Fatalf("%s: error %v, the reference %v", what, gerr, werr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
					}
					switch {
					case gerr == nil:
						deals++
					case errors.Is(gerr, ErrNoDeal):
						noDeals++
					}
				}
			}
		}
	}
	if deals == 0 || noDeals == 0 {
		t.Fatalf("%d deals, %d ErrNoDeal: both outcomes must be held to the reference", deals, noDeals)
	}
}

// TestRunAllocatesOnlyTheTranscript pins a negotiation to one allocation,
// its transcript, with the named tactics, which are handed out boxed.
func TestRunAllocatesOnlyTheTranscript(t *testing.T) {
	buyer, seller := stdBuyer(Linear()), stdSeller(Boulware())
	rounds := 0
	got := testing.AllocsPerRun(100, func() {
		b, s := *buyer, *seller
		deal, err := Run(&b, &s, 20)
		if err != nil {
			t.Fatal(err)
		}
		rounds = deal.Rounds
	})
	if got != 1 || rounds < 2 {
		t.Fatalf("%v allocations per negotiation of %d rounds, want 1", got, rounds)
	}
}

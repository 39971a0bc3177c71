package negotiate

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/qos"
)

// referenceRun is Run as it was before the transcript was allocated once and
// the last offer kept in place: a transcript grown by append, and a fresh
// copy of each offer to point the next proposal at.
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
		offer, err := proposer.propose(proposer.demanded(round, maxRounds), lastOffer)
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
// on overlapping zones, on disjoint ones (ErrNoDeal at the last round) and
// with no candidates.
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
		"overlap":  func(b, s *Negotiator) {},
		"disjoint": func(b, s *Negotiator) { b.Reservation, s.Reservation = 0.99, 0.99 },
		"empty":    func(b, s *Negotiator) { b.Candidates = nil },
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

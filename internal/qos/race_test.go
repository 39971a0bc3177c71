package qos

import (
	"fmt"
	"sync"
	"testing"
)

// The reputation ledger is goroutine-safe (core records outcomes on the
// asking goroutine, in plan order, but nothing stops a caller from
// recording concurrently), and it had never run under -race. Hammer every public method from racing goroutines; run with
// `make race`.
func TestReputationLedgerConcurrent(t *testing.T) {
	l := NewReputationLedger(0.98, 16)
	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			provider := fmt.Sprintf("p%d", w%3) // contend on shared providers
			for i := 0; i < rounds; i++ {
				l.RecordOutcome(provider, Outcome{
					Fulfilled: i%3 != 0,
					Shortfall: float64(i%4) / 4,
				})
				l.Trust(provider)
				l.Belief(provider)
				l.History(provider)
				l.Ranked()
				l.Blacklisted(provider, 0.3, 5)
			}
		}(w)
	}
	wg.Wait()
	for p := 0; p < 3; p++ {
		provider := fmt.Sprintf("p%d", p)
		tr := l.Trust(provider)
		if tr < 0 || tr > 1 {
			t.Errorf("Trust(%s) = %v out of [0,1] after concurrent updates", provider, tr)
		}
		if h := l.History(provider); len(h) > 16 {
			t.Errorf("History(%s) retained %d > keepN=16", provider, len(h))
		}
	}
	if got := len(l.Ranked()); got != 3 {
		t.Errorf("Ranked() has %d providers, want 3", got)
	}
}

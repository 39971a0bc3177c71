package collab

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/profile"
	"repro/internal/query"
)

// The collaboration layer had never run under -race before this suite:
// sessions are documented as safe for concurrent member activity ("see
// everyone's results at the same time"), so exercise every public entry
// point from racing goroutines. Run with `make race`.

func raceProfile(user string) *profile.Profile {
	return &profile.Profile{
		UserID:    user,
		Interests: feature.Vector{1, 0, 0},
	}
}

func raceResult(id string, score float64) query.Result {
	return query.Result{
		Hit:    docstore.Hit{Doc: &docstore.Document{ID: id, Concept: feature.Vector{0, 1, 0}}, Score: score},
		Source: "race-src",
	}
}

func TestSessionConcurrentMembers(t *testing.T) {
	s := NewSession("race")
	const members = 8
	const steps = 50
	for m := 0; m < members; m++ {
		s.Join(raceProfile(fmt.Sprintf("u%d", m)))
	}
	var wg sync.WaitGroup
	for m := 0; m < members; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", m)
			for i := 0; i < steps; i++ {
				st := Step{Query: &query.Query{Text: "q"}, Concept: feature.Vector{1, 0, 0}}
				res := []query.Result{raceResult(fmt.Sprintf("d%d-%d", m, i), float64(i))}
				if err := s.RecordStep(user, st, res); err != nil {
					t.Errorf("RecordStep(%s): %v", user, err)
					return
				}
				// Interleave every read path with the writes.
				s.Workspace()
				s.Members()
				s.Profile(user)
				if _, err := s.Thread(user); err != nil {
					t.Errorf("Thread(%s): %v", user, err)
					return
				}
				if i%7 == 0 {
					_ = s.Discard(user, fmt.Sprintf("d%d-%d", m, i))
				}
				if m > 0 {
					if _, err := s.TakeOver(user, fmt.Sprintf("u%d", m-1)); err != nil && err != ErrNoThread {
						t.Errorf("TakeOver(%s): %v", user, err)
						return
					}
				}
			}
		}(m)
	}
	wg.Wait()
	if got := len(s.Members()); got != members {
		t.Fatalf("Members() = %d, want %d", got, members)
	}
}

// TestSessionConcurrentMerge races two replica sessions recording steps
// while merging each other's workspaces both ways — the cross-institution
// sync path.
func TestSessionConcurrentMerge(t *testing.T) {
	a := NewSession("replica-a")
	b := NewSession("replica-b")
	a.Join(raceProfile("alice"))
	b.Join(raceProfile("bob"))
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			st := Step{Query: &query.Query{Text: "a"}}
			_ = a.RecordStep("alice", st, []query.Result{raceResult(fmt.Sprintf("a%d", i), 1)})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			st := Step{Query: &query.Query{Text: "b"}}
			_ = b.RecordStep("bob", st, []query.Result{raceResult(fmt.Sprintf("b%d", i), 1)})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			a.MergeWorkspace(b)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			b.MergeWorkspace(a)
		}
	}()
	wg.Wait()
	// After a final two-way sync both replicas converge (CRDT join).
	a.MergeWorkspace(b)
	b.MergeWorkspace(a)
	wa, wb := a.Workspace(), b.Workspace()
	if len(wa) != len(wb) {
		t.Fatalf("replicas diverged after sync: %d vs %d entries", len(wa), len(wb))
	}
}

func TestORSetConcurrentOps(t *testing.T) {
	x := NewORSet("x")
	y := NewORSet("y")
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			x.Add(fmt.Sprintf("i%d", i%17), i)
			if i%5 == 0 {
				x.Remove(fmt.Sprintf("i%d", i%17))
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			y.Add(fmt.Sprintf("i%d", i%13), i)
			y.Merge(x)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			x.Items()
			x.Contains("i3")
			x.Get("i5")
			_ = x.Len()
		}
	}()
	wg.Wait()
	// Idempotence under a final converge.
	y.Merge(x)
	before := y.Len()
	y.Merge(x)
	if y.Len() != before {
		t.Fatalf("Merge is not idempotent under concurrency: %d -> %d", before, y.Len())
	}
}

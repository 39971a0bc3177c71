package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/docstore"
	"repro/internal/qos"
	"repro/internal/workload"
)

// askSeries runs the same query workload on a freshly built world and
// returns every answer. Worlds are rebuilt per call so two runs share no
// state but the seed.
func askSeries(t *testing.T, seed int64, asks int) []*Answer {
	t.Helper()
	a, g, _ := buildWorld(t, seed, 600, 4)
	s := a.NewSession(irisProfile(g, 0))
	out := make([]*Answer, 0, asks)
	for i := 0; i < asks; i++ {
		topic := g.Topics[i%4]
		ans, err := s.Ask(fmt.Sprintf(`FIND documents WHERE topic = "%s" TOP 10`, topic.Name), topic.Center)
		if err != nil {
			t.Fatalf("ask %d: %v", i, err)
		}
		out = append(out, ans)
	}
	return out
}

// TestAskIsDeterministic is the determinism guarantee: two fresh worlds at
// the same seed return byte-identical answers — results, contracts, QoS,
// negotiation accounting.
func TestAskIsDeterministic(t *testing.T) {
	const asks = 8
	first := askSeries(t, 31, asks)
	second := askSeries(t, 31, asks)
	for i := range first {
		if !reflect.DeepEqual(first[i].Results, second[i].Results) {
			t.Fatalf("ask %d: results diverge between two worlds at one seed", i)
		}
		if first[i].Delivered != second[i].Delivered {
			t.Fatalf("ask %d: delivered QoS diverges: %+v vs %+v", i, first[i].Delivered, second[i].Delivered)
		}
		if len(first[i].Contracts) != len(second[i].Contracts) {
			t.Fatalf("ask %d: contract counts diverge", i)
		}
		for j := range first[i].Contracts {
			if first[i].Contracts[j].ID != second[i].Contracts[j].ID {
				t.Fatalf("ask %d: contract ids diverge (%s vs %s)",
					i, first[i].Contracts[j].ID, second[i].Contracts[j].ID)
			}
		}
		if first[i].Rounds != second[i].Rounds || first[i].Negotiated != second[i].Negotiated {
			t.Fatalf("ask %d: negotiation accounting diverges", i)
		}
	}
}

// TestAskRaceWithChurn hammers the parallel pipeline while providers churn
// — nodes joining and content arriving mid-flight. Run under -race (the
// Makefile race target includes this package); the assertions here are
// liveness only.
func TestAskRaceWithChurn(t *testing.T) {
	a, g, _ := buildWorld(t, 32, 400, 4)
	s := a.NewSession(irisProfile(g, 0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		extra := g.GenCorpus(200, 1.1, 0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%40 == 0 {
				_, _ = a.AddNode(fmt.Sprintf("churn-%d", i), DefaultEconomics(), DefaultBehavior())
			}
			node := a.Node(workload.SourceName(i % 4))
			d := extra[i%len(extra)].Doc.Clone()
			d.ID = fmt.Sprintf("churn-doc-%d", i)
			if err := node.Ingest(d); err != nil && err != docstore.ErrClosed {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()

	topic := g.Topics[0]
	for i := 0; i < 15; i++ {
		if _, err := s.Ask(fmt.Sprintf(`FIND documents WHERE topic = "%s" TOP 10`, topic.Name), topic.Center); err != nil {
			t.Fatalf("ask %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAskStartsNoGoroutine pins that an ask owns no goroutine: every
// source is negotiated, executed and settled on the goroutine that asked, so
// the goroutine count inside each progressive callback is the count before
// the ask began.
func TestAskStartsNoGoroutine(t *testing.T) {
	a, g, _ := buildWorld(t, 34, 400, 4)
	p := irisProfile(g, 0)
	// Completeness-hungry weights plan every source.
	p.Weights = qos.Weights{Latency: 1, Completeness: 5, Freshness: 1, Trust: 1, Price: 0.2}
	s := a.NewSession(p)
	topic := g.Topics[0]
	before := runtime.NumGoroutine()
	partials := 0
	_, err := s.AskProgressive(fmt.Sprintf(`FIND documents WHERE topic = "%s" TOP 10`, topic.Name), topic.Center,
		func(Partial) {
			partials++
			if got := runtime.NumGoroutine(); got != before {
				t.Errorf("partial %d: %d goroutines, %d before the ask", partials, got, before)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if partials < 2 {
		t.Fatalf("%d progressive deliveries, want one per planned source", partials)
	}
}

// TestFateResolution pins the hedging and deadline policy arithmetic.
func TestFateResolution(t *testing.T) {
	fast := attemptFate{available: true, latency: 100 * time.Millisecond, honored: true}
	slow := attemptFate{available: true, latency: 900 * time.Millisecond, honored: true}
	down := attemptFate{available: false}

	// No hedge drawn: primary wins at its own pace.
	r := sourceFate{primary: fast, hedgeAt: 500 * time.Millisecond, deadline: time.Second}.resolve("x")
	if r.err != nil || r.hedged || r.span != 100*time.Millisecond {
		t.Fatalf("plain fast attempt mis-resolved: %+v", r)
	}

	// Slow primary, faster hedge: hedge fires at p95 and wins.
	h := fast
	r = sourceFate{primary: slow, hedge: &h, hedgeAt: 500 * time.Millisecond, deadline: 2 * time.Second}.resolve("x")
	if r.err != nil || !r.hedgeWon || r.span != 600*time.Millisecond {
		t.Fatalf("hedge should win at hedgeAt+latency: %+v", r)
	}

	// Unreachable primary: hedge retries immediately.
	r = sourceFate{primary: down, hedge: &h, hedgeAt: 500 * time.Millisecond, deadline: time.Second}.resolve("x")
	if r.err != nil || !r.hedgeWon || r.span != 100*time.Millisecond {
		t.Fatalf("immediate retry mis-resolved: %+v", r)
	}

	// Both attempts down: the source is unavailable.
	d2 := down
	r = sourceFate{primary: down, hedge: &d2, hedgeAt: 0, deadline: time.Second}.resolve("x")
	if r.err == nil {
		t.Fatal("unreachable source must error")
	}

	// Nobody beats the deadline: abandon at the deadline, not later.
	s2 := slow
	r = sourceFate{primary: slow, hedge: &s2, hedgeAt: 200 * time.Millisecond, deadline: 400 * time.Millisecond}.resolve("x")
	if r.err == nil || !r.timedOut || r.span != 400*time.Millisecond {
		t.Fatalf("deadline not enforced: %+v", r)
	}

	// Shirking prices the extra delay into the attempt span.
	shirk := attemptFate{available: true, latency: 100 * time.Millisecond, honored: false, extra: 50 * time.Millisecond}
	if shirk.span() != 150*time.Millisecond {
		t.Fatalf("shirk span = %v", shirk.span())
	}
}

// TestHedgingCapsTail narrows the latency prior with a few observations,
// then checks that a pathologically slow provider cannot stall an ask past
// the per-source deadline derived from that prior.
func TestHedgingCapsTail(t *testing.T) {
	a, g, _ := buildWorld(t, 33, 300, 1)
	s := a.NewSession(irisProfile(g, 0))
	topic := g.Topics[0]
	aql := fmt.Sprintf(`FIND documents WHERE topic = "%s" TOP 5`, topic.Name)
	for i := 0; i < 6; i++ {
		if _, err := s.Ask(aql, topic.Center); err != nil {
			t.Fatal(err)
		}
	}
	name := workload.SourceName(0)
	prior := s.latencyPrior(name)
	if prior.Width() >= 1.95 {
		t.Fatal("prior did not narrow after observations")
	}
	// The tightest deadline the session may now impose.
	p95 := time.Duration((prior.Lo + 0.95*prior.Width()) * float64(time.Second))
	if p95 < minHedgeTrigger {
		p95 = minHedgeTrigger
	}
	// Make the node pathologically slow and ask again: the delivered
	// latency must never exceed the hedged deadline even though raw draws
	// now run far beyond it.
	a.Node(name).Behavior.BaseLatency = 30 * time.Second
	for i := 0; i < 10; i++ {
		ans, err := s.Ask(aql, topic.Center)
		if err != nil {
			continue // all attempts past deadline: acceptable, re-ask
		}
		if ans.Delivered.Latency > 2*p95 {
			t.Fatalf("ask %d stalled past deadline: %v > %v", i, ans.Delivered.Latency, 2*p95)
		}
		// The prior adapts after each observation; refresh the bound.
		prior = s.latencyPrior(name)
		p95 = time.Duration((prior.Lo + 0.95*prior.Width()) * float64(time.Second))
		if p95 < minHedgeTrigger {
			p95 = minHedgeTrigger
		}
	}
}

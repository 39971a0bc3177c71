package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// marketWorld is the composed benchmark's market_ask at a fixed seed: eight
// bulk-loaded sources of about a thousand documents each that always answer,
// one traced session that has clicked on an answer — so its TermAffinity is
// populated and the personalize step has affinities to look up — and a list
// of distinct asks, because a repeated one is served from the stores' result
// caches.
func marketWorld(tb testing.TB, asks int) (*Session, []string, []feature.Vector) {
	tb.Helper()
	const seed, dim = 1, 32
	a := New(Config{Seed: seed, ConceptDim: dim, Telemetry: telemetry.NewRegistry()})
	g := workload.NewGenerator(seed, dim, 16)
	behavior := DefaultBehavior()
	behavior.Availability, behavior.LatencyJitter = 1, 0
	for i, list := range g.AssignToSources(g.GenCorpus(8192, 1.1, int64(time.Hour)), 8, 0.7) {
		n, err := a.AddNode(workload.SourceName(i), DefaultEconomics(), behavior)
		if err != nil {
			tb.Fatal(err)
		}
		batch := make([]*docstore.Document, len(list))
		for j, d := range list {
			batch[j] = d.Doc
		}
		if err := n.IngestBatch(batch); err != nil {
			tb.Fatal(err)
		}
	}
	user := g.GenUsers(1)[0]
	p := profile.New(user.ID, dim)
	p.Interests = user.Concept.Clone()
	s := a.NewSession(p)
	aqls, concepts := make([]string, asks), make([]feature.Vector, asks)
	for i := range aqls {
		text, concept, _ := g.QueryFor(user)
		aqls[i], concepts[i] = fmt.Sprintf(`FIND documents WHERE text ~ "%s" TOP 10`, text), concept
	}
	ans, err := s.Ask(aqls[0], concepts[0])
	if err != nil || len(ans.Results) < 3 {
		tb.Fatalf("warm-up ask: %v, %d results", err, len(ans.Results))
	}
	var clicks []profile.Event
	for _, r := range ans.Results[:3] {
		clicks = append(clicks, profile.Event{Type: profile.EventClick, Concept: r.Doc.Concept, Terms: r.Doc.Tokens(), Source: r.Source, Satisfied: true})
	}
	s.Feedback(clicks)
	if len(s.Profile.TermAffinity) == 0 {
		tb.Fatal("the clicks left no term affinity")
	}
	return s, aqls, concepts
}

// TestAskAllocBudget holds one market ask — plan over eight sources,
// negotiate, a hybrid subquery at each contracted source, fuse, personalize —
// to an allocation count. At the parent of the PR that set it an ask made
// about 2 500: a token slice per merged result, a plan per subset scored,
// id-keyed maps over both hybrid pools.
func TestAskAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	const runs = 64
	s, aqls, concepts := marketWorld(t, runs+2)
	i := 1
	got := testing.AllocsPerRun(runs, func() {
		ans, err := s.Ask(aqls[i], concepts[i])
		if err != nil || len(ans.Results) == 0 {
			t.Fatalf("ask %d: %v", i, err)
		}
		i++
	})
	if got > 400 {
		t.Fatalf("%.0f allocations per ask, budget 400", got)
	}
	t.Logf("%.0f allocations per ask", got)
}

func BenchmarkMarketAsk(b *testing.B) {
	s, aqls, concepts := marketWorld(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ask(aqls[1+i%4095], concepts[1+i%4095]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAskYields pins the yield at the end of an ask: on one processor a
// goroutine that became runnable before the ask — a ticker's, a listener's —
// has run by the time the ask returns, whether or not the ask met a
// collection. Without the yield it waits for the runtime's forced
// preemption, many asks later. Under the race detector the other goroutine's
// first run can lose to the instrumented ask, so the pin holds only without
// it.
func TestAskYields(t *testing.T) {
	if raceEnabled {
		t.Skip("a scheduling-order pin: the race detector reorders what it pins")
	}
	s, aqls, concepts := marketWorld(t, 10)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 1; i < len(aqls); i++ {
		var ran atomic.Bool
		go ran.Store(true)
		if _, err := s.Ask(aqls[i], concepts[i]); err != nil {
			t.Fatalf("ask %d: %v", i, err)
		}
		if !ran.Load() {
			t.Fatalf("ask %d returned before a goroutine runnable since its start had run", i)
		}
	}
}

package core

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// marketWorld is the composed benchmark's market_ask at a fixed seed: eight
// bulk-loaded sources of about a thousand documents each that always answer,
// one traced session that has clicked on an answer — so its TermAffinity is
// populated and the personalize step has affinities to look up — and a list
// of distinct asks, as the workload sends them (a repeat would run again: the
// stores do not cache hybrid asks).
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
// to an allocation count: the 30 it makes, plus 10%. When the budget was
// first set an ask made about 2 500 (a token slice per merged result, a plan
// per subset scored, id-keyed maps over both hybrid pools), about 80 before
// tokens aliased their text, negotiation and fusion stopped building maps and
// escaping offers, and spans came from the trace's slab, and 33 while each
// hybrid subquery still stored a result-cache entry no later ask could hit.
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
	if got > 33 {
		t.Fatalf("%.0f allocations per ask, budget 33", got)
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

// TestFeedbackPinsNoDocument: click terms come from Document.Tokens, which
// alias the document's text, and the learned profile outlives the answer. No
// TermAffinity key may point into a clicked document's title or body.
func TestFeedbackPinsNoDocument(t *testing.T) {
	s, aqls, concepts := marketWorld(t, 2)
	ans, err := s.Ask(aqls[1], concepts[1])
	if err != nil || len(ans.Results) == 0 {
		t.Fatalf("ask: %v", err)
	}
	var clicks []profile.Event
	for _, r := range ans.Results {
		clicks = append(clicks, profile.Event{Type: profile.EventClick, Concept: r.Doc.Concept, Terms: r.Doc.Tokens(), Source: r.Source})
	}
	s.Feedback(clicks)
	for _, r := range ans.Results {
		for _, text := range []string{r.Doc.Title, r.Doc.Text} {
			base := uintptr(unsafe.Pointer(unsafe.StringData(text)))
			for k := range s.Profile.TermAffinity {
				if uintptr(unsafe.Pointer(unsafe.StringData(k)))-base < uintptr(len(text)) {
					t.Fatalf("affinity key %q points into %s's text", k, r.Doc.ID)
				}
			}
		}
	}
}

// TestAskUnmovedByWritesAfterItsSearch: the personalize step reads a
// result's term counts from the index its search found it in, so writes that
// land between a source's search and that step change nothing. An ask whose
// onPartial replaces with new text, or deletes, every document the first
// source served answers with the IDs and score bits of the same seed's ask
// without those writes and, the writes' own allocations left out, allocates
// no more.
func TestAskUnmovedByWritesAfterItsSearch(t *testing.T) {
	// ask runs the market world's second ask with write applied, inside
	// onPartial, to the first source's store and results. The pools start
	// empty and are refilled by a warm-up ask; from there on one processor
	// runs with the collector off, so pooled scratch is neither dropped nor
	// left in another processor's cache, and both measurements start from
	// the same state. It returns the answer, the allocations the ask made
	// outside write, and the first source's served IDs.
	ask := func(write func(st *docstore.Store, served []query.Result)) (*Answer, uint64, map[string]bool) {
		s, aqls, concepts := marketWorld(t, 3)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		runtime.GC() // a pool's entries outlive one collection, not two
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		if _, err := s.Ask(aqls[2], concepts[2]); err != nil {
			t.Fatal(err)
		}
		served := map[string]bool{}
		var before, after, w0, w1 runtime.MemStats
		var writes uint64
		runtime.ReadMemStats(&before)
		ans, err := s.AskProgressive(aqls[1], concepts[1], func(p Partial) {
			if p.SourcesDone != 1 {
				return
			}
			runtime.ReadMemStats(&w0)
			for _, r := range p.Results {
				served[r.Doc.ID] = true
			}
			write(s.agora.Node(p.Source).Store, p.Results)
			runtime.ReadMemStats(&w1)
			writes = w1.Mallocs - w0.Mallocs
		})
		runtime.ReadMemStats(&after)
		if err != nil || len(served) == 0 {
			t.Fatalf("ask: %v, %d results from the first source", err, len(served))
		}
		return ans, after.Mallocs - before.Mallocs - writes, served
	}
	want, wantAllocs, _ := ask(func(*docstore.Store, []query.Result) {})
	for name, write := range map[string]func(*docstore.Store, []query.Result){
		"replaced": func(st *docstore.Store, served []query.Result) {
			docs := make([]*docstore.Document, len(served))
			for i, r := range served {
				docs[i] = r.Doc.Clone()
				docs[i].Title, docs[i].Text = "rewritten", "nothing it said before"
			}
			if err := st.PutBatch(docs); err != nil {
				t.Fatal(err)
			}
		},
		"deleted": func(st *docstore.Store, served []query.Result) {
			for _, r := range served {
				if err := st.Delete(r.Doc.ID); err != nil {
					t.Fatal(err)
				}
			}
		},
	} {
		got, allocs, served := ask(write)
		if len(got.Results) != len(want.Results) {
			t.Fatalf("%s: %d results, want %d", name, len(got.Results), len(want.Results))
		}
		written := 0
		for i, r := range got.Results {
			w := want.Results[i]
			if r.Doc.ID != w.Doc.ID || math.Float64bits(r.Score) != math.Float64bits(w.Score) {
				t.Fatalf("%s: result %d is %s %v, want %s %v", name, i, r.Doc.ID, r.Score, w.Doc.ID, w.Score)
			}
			if served[r.Doc.ID] {
				written++
			}
		}
		if written == 0 {
			t.Fatalf("%s: no result came from the first source", name)
		}
		if !raceEnabled && allocs > wantAllocs {
			t.Fatalf("%s: the ask made %d allocations besides its writes, %d without them", name, allocs, wantAllocs)
		}
		t.Logf("%s: %d of %d results written away; %d allocations besides the writes, %d without them", name, written, len(got.Results), allocs, wantAllocs)
	}
}

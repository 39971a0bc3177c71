package docstore

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/feature"
)

// TestHeldSnapshotSurvivesLaterWindows pins what the overlay's sharing rests
// on: successors append to, and copy before shortening, the arrays a
// published overlay's postings end in, so a snapshot held across later
// windows keeps answering to the bit. The held snapshot has overlay postings
// of its own; at least 64 windows then add carriers of the same terms,
// replace and delete documents the held overlay carries (the copy in
// delTermPost) and base documents (the tombstones), none crossing a freeze,
// while a reader goroutine keeps asking the held snapshot. An in-place delete
// on a shared array, or an append that is not past every held length, changes
// a held answer.
func TestHeldSnapshotSurvivesLaterWindows(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s, err := Open(Options{ConceptDim: 8, Seed: 7, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	const baseDocs = 4096 // overlayLimit 512: room for every window below
	bulk := make([]*Document, baseDocs)
	for i := range bulk {
		bulk[i] = shadowDoc(r, fmt.Sprintf("b%04d", i), int64(i))
	}
	if err := s.PutBatch(bulk); err != nil {
		t.Fatal(err)
	}
	if sn := s.snap.Load(); len(sn.base.cx.ids) != baseDocs || len(sn.ov.byID) != 0 {
		t.Fatalf("base %d, overlay %d: the bulk load did not freeze", len(sn.base.cx.ids), len(sn.ov.byID))
	}
	at := int64(baseDocs)
	window := func(w int) {
		t.Helper()
		at++
		batch := []*Document{
			shadowDoc(r, fmt.Sprintf("n%03d", w), at),                // a new carrier
			shadowDoc(r, fmt.Sprintf("b%04d", r.Intn(baseDocs)), at), // a base document replaced
		}
		if w > 0 {
			batch = append(batch, shadowDoc(r, fmt.Sprintf("n%03d", r.Intn(w)), at)) // an overlay document replaced
		}
		if err := s.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
		if w%3 == 2 { // a deleted id may be dead already
			s.Delete(fmt.Sprintf("n%03d", r.Intn(w)))
			s.Delete(fmt.Sprintf("b%04d", r.Intn(baseDocs)))
		}
	}
	for w := 0; w < 12; w++ {
		window(w)
	}

	held := s.snap.Load()
	if len(held.ov.termPost) == 0 || len(held.ov.masked) == 0 {
		t.Fatal("the held overlay has no postings or no tombstones: not the shape this test is about")
	}
	at0 := &Store{} // TermStats reads nothing but the published snapshot
	at0.snap.Store(held)
	var ids []string
	for w := 0; w < 90; w++ {
		ids = append(ids, fmt.Sprintf("n%03d", w))
	}
	for i := 0; i < baseDocs; i += 7 {
		ids = append(ids, fmt.Sprintf("b%04d", i))
	}
	// answers is everything asked of the held snapshot, flattened: hit ids and
	// score bits per query, the statistics of every term, a document pointer
	// per id.
	answers := func() []string {
		var out []string
		sc := getScratch()
		defer putScratch(sc)
		for i, a := range shadowVocab {
			q := a + " " + shadowVocab[(i+5)%len(shadowVocab)]
			for _, h := range held.searchTextRaw(feature.Tokenize(q), 10, sc, nil) {
				out = append(out, fmt.Sprintf("%s %s %x", q, h.Doc.ID, math.Float64bits(h.Score)))
			}
		}
		total, epoch, stats := at0.TermStats(shadowVocab)
		out = append(out, fmt.Sprint(total, epoch))
		for _, st := range stats {
			out = append(out, fmt.Sprintf("%d %x", st.DF, math.Float64bits(st.MaxRatio)))
		}
		for _, id := range ids {
			out = append(out, fmt.Sprintf("%s %p", id, held.getDoc(id)))
		}
		return out
	}
	want := answers()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := answers(); !slices.Equal(got, want) {
				t.Error("the held snapshot answered differently while later windows were written")
				return
			}
		}
	}()
	for w := 12; w < 90; w++ {
		window(w)
	}
	close(stop)
	wg.Wait()

	now := s.snap.Load()
	if now.base != held.base {
		t.Fatal("the later windows crossed a freeze: the overlays share nothing")
	}
	if now.epoch-held.epoch < 64 {
		t.Fatalf("only %d windows after the held snapshot", now.epoch-held.epoch)
	}
	if got := answers(); !slices.Equal(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("the held snapshot's answers changed: answer %d was %q, want %q", i, got[min(i, len(got)-1)], want[i])
			}
		}
		t.Fatalf("the held snapshot gave %d answers, want %d", len(got), len(want))
	}
}

// TestTombstonesAreTheMaskedSetSorted: after every window of a random
// put/replace/delete schedule the overlay's tombstones are strictly
// ascending base ordinals — every reader binary-searches them or walks them
// with one pointer — and name exactly the base documents written or deleted
// since the freeze.
func TestTombstonesAreTheMaskedSetSorted(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s, err := Open(Options{ConceptDim: 8, Seed: 7, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	const universe = 600
	base := s.snap.Load().base
	masked := map[string]bool{}
	freezes := 0
	for step := 0; step < 3000; step++ {
		var touched []string
		switch r.Intn(4) {
		case 0:
			id := fmt.Sprintf("d%03d", r.Intn(universe))
			touched = []string{id}
			if err := s.Delete(id); err != nil {
				touched = nil // dead already: nothing is written
			}
		case 1:
			var batch []*Document
			for i := 0; i < 1+r.Intn(6); i++ {
				id := fmt.Sprintf("d%03d", r.Intn(universe))
				touched = append(touched, id)
				batch = append(batch, shadowDoc(r, id, int64(step)))
			}
			if err := s.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
		default:
			id := fmt.Sprintf("d%03d", r.Intn(universe))
			touched = []string{id}
			if err := s.Put(shadowDoc(r, id, int64(step))); err != nil {
				t.Fatal(err)
			}
		}
		sn := s.snap.Load()
		if sn.base != base {
			base, masked = sn.base, map[string]bool{}
			freezes++
		} else {
			for _, id := range touched {
				if _, inBase := base.cx.ords[id]; inBase {
					masked[id] = true
				}
			}
		}
		got := sn.ov.masked
		for i, ord := range got {
			if i > 0 && got[i-1] >= ord {
				t.Fatalf("step %d: tombstones %v not strictly ascending at %d", step, got, i)
			}
			if !masked[base.cx.ids[ord]] {
				t.Fatalf("step %d: tombstone for %s, which nothing wrote since the freeze", step, base.cx.ids[ord])
			}
		}
		if len(got) != len(masked) {
			t.Fatalf("step %d: %d tombstones for %d masked ids", step, len(got), len(masked))
		}
	}
	if freezes < 10 {
		t.Fatalf("only %d freezes: the schedule is not crossing merge boundaries", freezes)
	}
}

package docstore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/feature"
)

// TestHeldSnapshotSurvivesLaterWindows pins what the sharing between
// snapshots rests on: a segment's indexes are never written again — its
// tombstones are folded into a new entry, a merge builds a new segment — so a
// snapshot held across later windows keeps answering to the bit. The held
// snapshot has small segments and tombstones in more than one; later windows
// then add carriers of the same terms, replace and delete documents of every
// segment (the tombstones), and merge the held snapshot's small segments
// away, while a reader goroutine keeps asking the held snapshot. A fold or a
// merge that writes into a published entry changes a held answer.
func TestHeldSnapshotSurvivesLaterWindows(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s, err := Open(Options{ConceptDim: 8, Seed: 7, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	const baseDocs = 4096
	bulk := make([]*Document, baseDocs)
	for i := range bulk {
		bulk[i] = shadowDoc(r, fmt.Sprintf("b%04d", i), int64(i))
	}
	if err := s.PutBatch(bulk); err != nil {
		t.Fatal(err)
	}
	if sn := s.snap.Load(); len(sn.segs) != 1 || len(sn.segs[0].cx.ids) != baseDocs {
		t.Fatalf("%d segments: the bulk load did not compile into one", len(sn.segs))
	}
	at := int64(baseDocs)
	window := func(w int) {
		t.Helper()
		at++
		batch := []*Document{
			shadowDoc(r, fmt.Sprintf("n%03d", w), at),                // a new carrier
			shadowDoc(r, fmt.Sprintf("b%04d", r.Intn(baseDocs)), at), // a document of the first segment replaced
		}
		if w > 0 {
			batch = append(batch, shadowDoc(r, fmt.Sprintf("n%03d", r.Intn(w)), at)) // a later document replaced
		}
		if err := s.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
		if w%3 == 2 { // a deleted id may be dead already
			s.Delete(fmt.Sprintf("n%03d", r.Intn(w)))
			s.Delete(fmt.Sprintf("b%04d", r.Intn(baseDocs)))
		}
	}
	tombstoned := func(sn *snapshot) int {
		n := 0
		for _, seg := range sn.segs {
			if len(seg.dead) > 0 {
				n++
			}
		}
		return n
	}
	// Windows until the snapshot has at least two small segments behind the
	// first and tombstones in two of them: that one is held.
	w := 0
	for ; ; w++ {
		if sn := s.snap.Load(); len(sn.segs) >= 3 && tombstoned(sn) >= 2 {
			break
		}
		if w == 200 {
			t.Fatal("200 windows and no snapshot of the shape this test is about")
		}
		window(w)
	}
	const later = 160 // windows after the held one

	held := s.snap.Load()
	at0 := &Store{} // TermStats reads nothing but the published snapshot
	at0.snap.Store(held)
	var ids []string
	for i := 0; i < w+later; i++ {
		ids = append(ids, fmt.Sprintf("n%03d", i))
	}
	for i := 0; i < baseDocs; i += 7 {
		ids = append(ids, fmt.Sprintf("b%04d", i))
	}
	// answers is everything asked of the held snapshot, flattened: hit ids and
	// score bits per query, the statistics of every term, a document pointer
	// per id, the newest documents.
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
		for _, h := range held.assembleHits(held.searchVectorRaw(oracleVec, 10, sc)) {
			out = append(out, fmt.Sprintf("vector %s %x", h.Doc.ID, math.Float64bits(h.Score)))
		}
		total, epoch, stats := at0.TermStats(shadowVocab)
		out = append(out, fmt.Sprint(total, epoch, at0.TopicCount("alpha")))
		for _, st := range stats {
			out = append(out, fmt.Sprintf("%d %x", st.DF, math.Float64bits(st.MaxRatio)))
		}
		for _, id := range ids {
			out = append(out, fmt.Sprintf("%s %p", id, held.getDoc(id)))
		}
		return append(out, docIDs(at0.Freshest(20))...)
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
	for end := w + later; w < end; w++ {
		window(w)
	}
	close(stop)
	wg.Wait()

	now := s.snap.Load()
	if now.epoch-held.epoch < 64 {
		t.Fatalf("only %d windows after the held snapshot", now.epoch-held.epoch)
	}
	gone := 0 // held segments whose index no later entry shares: merged away
	for _, seg := range held.segs[1:] {
		if !slices.ContainsFunc(now.segs, func(n *segment) bool { return n.cx == seg.cx }) {
			gone++
		}
	}
	if gone == 0 || now.segs[0].cx != held.segs[0].cx || len(now.segs[0].dead) <= len(held.segs[0].dead) {
		t.Fatalf("%d of the held snapshot's small segments merged away, first segment shared %v with %d → %d tombstones: the later windows were to merge the former and fold into the latter",
			gone, now.segs[0].cx == held.segs[0].cx, len(held.segs[0].dead), len(now.segs[0].dead))
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
// put/replace/delete schedule each segment's tombstones are strictly
// ascending ordinals — every reader binary-searches them or walks them with
// one pointer — and name exactly the documents later writes superseded or
// deleted: an ordinal is dead if and only if its id is deleted or a newer
// segment holds it.
func TestTombstonesAreTheMaskedSetSorted(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s, err := Open(Options{ConceptDim: 8, Seed: 7, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	const universe = 600
	live := map[string]bool{}
	prev := s.snap.Load()
	merges := 0
	for step := 0; step < 3000; step++ {
		switch r.Intn(4) {
		case 0:
			id := fmt.Sprintf("d%03d", r.Intn(universe))
			if err := s.Delete(id); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
			delete(live, id)
		case 1:
			var batch []*Document
			for i := 0; i < 1+r.Intn(6); i++ {
				id := fmt.Sprintf("d%03d", r.Intn(universe))
				live[id] = true
				batch = append(batch, shadowDoc(r, id, int64(step)))
			}
			if err := s.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
		default:
			id := fmt.Sprintf("d%03d", r.Intn(universe))
			live[id] = true
			if err := s.Put(shadowDoc(r, id, int64(step))); err != nil {
				t.Fatal(err)
			}
		}
		sn := s.snap.Load()
		if mergedSince(prev, sn) {
			merges++
		}
		prev = sn
		for si, seg := range sn.segs {
			for i, ord := range seg.dead {
				if i > 0 && seg.dead[i-1] >= ord {
					t.Fatalf("step %d: segment %d's tombstones %v not strictly ascending at %d", step, si, seg.dead, i)
				}
			}
			for ord, id := range seg.cx.ids {
				newer, _ := holder(sn.segs[si+1:], id)
				if want := !live[id] || newer >= 0; seg.isDead(uint32(ord)) != want {
					t.Fatalf("step %d: %s in segment %d dead = %v; live %v, held by a newer segment %v", step, id, si, !want, live[id], newer >= 0)
				}
			}
		}
	}
	if merges < 10 {
		t.Fatalf("only %d merges: the schedule is not crossing merge boundaries", merges)
	}
}

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

// TestHeldSnapshotSurvivesLaterWindows pins what the sharing between
// snapshots rests on. Within an overlay's lifetime, successors append to, and
// copy before shortening, the arrays a published overlay's postings end in;
// across freezes, a segment's indexes are never written again — its
// tombstones are folded into a new entry, a merge builds a new segment — so
// a snapshot held across later windows keeps answering to the bit. The held
// snapshot has small segments with tombstones and overlay postings of its
// own; later windows then add carriers of the same terms, replace and delete
// documents the held overlay carries (the copy in delTermPost) and documents
// of every segment (the tombstones), first in the held overlay's own lineage,
// then across freezes and tier merges that take the held snapshot's small
// segments away, while a reader goroutine keeps asking the held snapshot. An
// in-place delete on a shared array, an append that is not past every held
// length, or a fold that writes into a published entry changes a held answer.
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
	if sn := s.snap.Load(); len(sn.segs) != 1 || len(sn.segs[0].cx.ids) != baseDocs || len(sn.ov.byID) != 0 {
		t.Fatalf("%d segments, overlay %d: the bulk load did not freeze into one", len(sn.segs), len(sn.ov.byID))
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
	// Windows until the snapshot has at least two small segments behind the
	// first and an overlay with postings and tombstones: that one is held.
	w := 0
	for ; ; w++ {
		if sn := s.snap.Load(); len(sn.segs) >= 3 && len(sn.ov.termPost) > 0 && len(sn.ov.maskedIn(0)) > 0 && sn.ov.ops < overlayLimit/2 {
			break
		}
		if w == 200 {
			t.Fatal("200 windows and no snapshot of the shape this test is about")
		}
		window(w)
	}
	const later = 160 // windows after the held one

	held := s.snap.Load()
	tombstoned := 0
	for _, seg := range held.segs {
		if len(seg.dead) > 0 {
			tombstoned++
		}
	}
	if tombstoned < 2 {
		t.Fatalf("%d of the held snapshot's %d segments have tombstones", tombstoned, len(held.segs))
	}
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
		out = append(out, fmt.Sprint(total, epoch, at0.Stats().Terms, at0.TopicCount("alpha")))
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
	lineage := 0 // windows published in the held overlay's own lineage
	for end := w + later; w < end; w++ {
		window(w)
		if !frozeSince(held, s.snap.Load()) {
			lineage++
		}
	}
	close(stop)
	wg.Wait()

	now := s.snap.Load()
	if lineage < 4 {
		t.Fatalf("only %d windows before the first freeze: the held overlay's successors shared nothing with it", lineage)
	}
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
// put/replace/delete schedule the overlay's tombstones are, segment by
// segment, strictly ascending ordinals — every reader binary-searches them or
// walks them with one pointer — of documents that were live there at the last
// freeze, and name exactly the segment documents written or deleted since.
func TestTombstonesAreTheMaskedSetSorted(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s, err := Open(Options{ConceptDim: 8, Seed: 7, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	const universe = 600
	frozen := s.snap.Load() // the snapshot the last freeze published
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
		if frozeSince(frozen, sn) {
			frozen, masked = sn, map[string]bool{}
			freezes++
		} else {
			for _, id := range touched {
				if frozen.getDoc(id) != nil {
					masked[id] = true
				}
			}
		}
		n := 0
		for si, seg := range sn.segs {
			got := sn.ov.maskedIn(si)
			n += len(got)
			for i, ord := range got {
				if i > 0 && got[i-1] >= ord {
					t.Fatalf("step %d: segment %d's tombstones %v not strictly ascending at %d", step, si, got, i)
				}
				if id := seg.cx.ids[ord]; !masked[id] || seg.isDead(ord) {
					t.Fatalf("step %d: tombstone for %s in segment %d, which nothing wrote since the freeze or which was dead before it", step, id, si)
				}
			}
		}
		if n != len(masked) {
			t.Fatalf("step %d: %d tombstones for %d masked ids", step, n, len(masked))
		}
	}
	if freezes < 10 {
		t.Fatalf("only %d freezes: the schedule is not crossing merge boundaries", freezes)
	}
}

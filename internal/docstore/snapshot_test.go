package docstore

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/feature"
)

// TestSnapshotPreWriteStability pins the no-torn-reads contract: a reader
// holding a snapshot taken before a write keeps seeing the old epoch in its
// entirety, while new readers see the new one.
func TestSnapshotPreWriteStability(t *testing.T) {
	s := memStore(t)
	for i := 0; i < 5; i++ {
		if err := s.Put(doc(fmt.Sprintf("d%d", i), "Gold Ring", "byzantine gold ring", int64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	sn := s.snap.Load()
	epoch := s.Epoch()
	if sn.epoch != epoch {
		t.Fatalf("snapshot epoch %d != Epoch() %d", sn.epoch, epoch)
	}

	if err := s.Put(doc("d9", "Silver Brooch", "etruscan silver brooch", 99, nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("d0"); err != nil {
		t.Fatal(err)
	}

	if got := s.Epoch(); got <= epoch {
		t.Fatalf("epoch did not advance: %d -> %d", epoch, got)
	}
	// The held snapshot is frozen in time: the put is invisible, the
	// deleted doc still present, the epoch tag unchanged.
	if sn.epoch != epoch {
		t.Fatal("held snapshot's epoch changed under a concurrent write")
	}
	if sn.getDoc("d9") != nil {
		t.Fatal("held snapshot sees a post-snapshot put")
	}
	if sn.getDoc("d0") == nil {
		t.Fatal("held snapshot lost a doc deleted after it was taken")
	}
	// Fresh reads see the new state.
	if _, err := s.Get("d9"); err != nil {
		t.Fatalf("new read misses new doc: %v", err)
	}
	if _, err := s.Get("d0"); err == nil {
		t.Fatal("new read still sees deleted doc")
	}
}

// TestEpochMonotonic: every write bumps the epoch exactly once; reads never
// bump it.
func TestEpochMonotonic(t *testing.T) {
	s := memStore(t)
	last := s.Epoch()
	for i := 0; i < 150; i++ { // crosses tier merges
		if err := s.Put(doc(fmt.Sprintf("e%d", i), "t", "body text", int64(i), nil)); err != nil {
			t.Fatal(err)
		}
		e := s.Epoch()
		if e != last+1 {
			t.Fatalf("put %d: epoch %d -> %d, want +1", i, last, e)
		}
		last = e
	}
	s.SearchText("body", 3)
	s.Freshest(2)
	if s.Epoch() != last {
		t.Fatal("read path bumped the epoch")
	}
	if err := s.Delete("e0"); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != last+1 {
		t.Fatal("delete did not bump the epoch")
	}
}

var shadowVocab = []string{
	"gold", "silver", "ring", "brooch", "byzantine", "etruscan",
	"filigree", "amber", "jade", "pendant", "coin", "mosaic",
}

func shadowDoc(r *rand.Rand, id string, at int64) *Document {
	title := shadowVocab[r.Intn(len(shadowVocab))] + " " + shadowVocab[r.Intn(len(shadowVocab))]
	text := ""
	for i := 0; i < 4+r.Intn(5); i++ {
		text += shadowVocab[r.Intn(len(shadowVocab))] + " "
	}
	d := doc(id, title, text, at, nil)
	if r.Intn(3) > 0 {
		v := make(feature.Vector, 8)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		d.Concept = v
	}
	switch r.Intn(3) {
	case 0:
		d.Topics = []string{"alpha"}
	case 1:
		d.Topics = []string{"beta", "alpha"}
	}
	if r.Intn(4) == 0 {
		d.ColorHist = []float64{r.Float64(), r.Float64(), r.Float64()}
		d.Texture = []float64{r.Float64(), r.Float64()}
	}
	return d
}

// TestSnapshotMatchesMonolithic is the exactness proof for the segment-list
// read path: after every write in a put/replace/delete sweep (crossing
// several tier merges), and then in a scripted walk through the shapes of a
// segment list, every read API must return results identical — scores
// included — to a freshly built store holding the same live set in one
// segment. Text queries use at most two distinct terms so float accumulation
// order cannot differ between the two stores.
func TestSnapshotMatchesMonolithic(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	a, err := Open(Options{ConceptDim: 8, Seed: 7, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[string]*Document)
	ids := []string{}
	queries := []string{"gold ring", "byzantine", "amber jade", "mosaic coin"}
	qvec := feature.Vector{1, -0.5, 0.25, 0, 0.75, -1, 0.5, 0}
	qvis := feature.VisualFeatures{ColorHist: []float64{0.3, 0.4, 0.3}, Texture: []float64{0.6, 0.4}}

	check := func(step int) {
		t.Helper()
		// Rebuild a monolithic reference store with the same seed and
		// force a one-segment snapshot.
		b, err := Open(Options{ConceptDim: 8, Seed: 7, QueryCacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if d, ok := live[id]; ok {
				if err := b.Put(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		forceMerge(b)
		if bs := b.snap.Load(); len(bs.segs) > 1 {
			t.Fatal("reference store still has several segments after the forced merge")
		}

		if a.Len() != b.Len() {
			t.Fatalf("step %d: Len %d != %d", step, a.Len(), b.Len())
		}
		for _, q := range queries {
			ah, bh := a.SearchText(q, 5), b.SearchText(q, 5)
			if !hitsEqual(ah, bh) {
				t.Fatalf("step %d: SearchText(%q) diverged:\n segments: %v\n mono:     %v",
					step, q, hitIDs(ah), hitIDs(bh))
			}
		}
		if ah, bh := a.SearchVector(qvec, 5), b.SearchVector(qvec, 5); !hitsEqual(ah, bh) {
			t.Fatalf("step %d: SearchVector diverged: %v vs %v", step, hitIDs(ah), hitIDs(bh))
		}
		if ah, bh := a.SearchVisual(qvis, 0.5, 4), b.SearchVisual(qvis, 0.5, 4); !hitsEqual(ah, bh) {
			t.Fatalf("step %d: SearchVisual diverged: %v vs %v", step, hitIDs(ah), hitIDs(bh))
		}
		for _, topic := range []string{"alpha", "beta", "gamma"} {
			if ac, bc := a.TopicCount(topic), b.TopicCount(topic); ac != bc {
				t.Fatalf("step %d: TopicCount(%q) %d != %d", step, topic, ac, bc)
			}
			if av, bv := hitIDs(a.Newest(topic, 6)), hitIDs(b.Newest(topic, 6)); !strsEqual(av, bv) {
				t.Fatalf("step %d: Newest(%q) %v != %v", step, topic, av, bv)
			}
		}
		if av, bv := docIDs(a.Freshest(7)), docIDs(b.Freshest(7)); !strsEqual(av, bv) {
			t.Fatalf("step %d: Freshest %v != %v", step, av, bv)
		}
		if av, bv := docIDs(a.RecentSince(20, 900)), docIDs(b.RecentSince(20, 900)); !strsEqual(av, bv) {
			t.Fatalf("step %d: RecentSince %v != %v", step, av, bv)
		}
		an, bn := 0, 0
		a.All(func(*Document) bool { an++; return true })
		b.All(func(*Document) bool { bn++; return true })
		if an != bn {
			t.Fatalf("step %d: All visited %d vs %d", step, an, bn)
		}
	}

	for step := 0; step < 180; step++ {
		switch op := r.Intn(10); {
		case op < 6 || len(ids) == 0: // put new
			id := fmt.Sprintf("s%03d", len(ids))
			d := shadowDoc(r, id, int64(step))
			ids = append(ids, id)
			live[id] = d
			if err := a.Put(d); err != nil {
				t.Fatal(err)
			}
		case op < 8: // replace existing (possibly a deleted id: put-back)
			id := ids[r.Intn(len(ids))]
			d := shadowDoc(r, id, int64(step))
			live[id] = d
			if err := a.Put(d); err != nil {
				t.Fatal(err)
			}
		default: // delete
			id := ids[r.Intn(len(ids))]
			if _, ok := live[id]; !ok {
				continue
			}
			delete(live, id)
			if err := a.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if step%9 == 0 || step > 170 {
			check(step)
		}
	}

	// The same comparison through a scripted segment list: tombstones in every
	// tier, a dead-share merge, a tier merge (tierSchedule), after every write,
	// on a store of its own so that the shapes are the schedule's.
	if a, err = Open(Options{ConceptDim: 8, Seed: 7, QueryCacheSize: -1}); err != nil {
		t.Fatal(err)
	}
	clear(live)
	ids = ids[:0]
	step := 1000
	wrote := func(docs ...*Document) {
		t.Helper()
		for _, d := range docs {
			if _, known := live[d.ID]; !known && !slices.Contains(ids, d.ID) {
				ids = append(ids, d.ID)
			}
			live[d.ID] = d
		}
		step++
		check(step)
	}
	tierSchedule(t, a, r, tierOps{
		put: func(_ string, d *Document) {
			t.Helper()
			if err := a.Put(d); err != nil {
				t.Fatal(err)
			}
			wrote(d)
		},
		del: func(_, id string) {
			t.Helper()
			if err := a.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
			wrote()
		},
		batch: func(_ string, docs []*Document) {
			t.Helper()
			if err := a.PutBatch(docs); err != nil {
				t.Fatal(err)
			}
			wrote(docs...)
		},
		shaped: func(string, *snapshot) {},
	})
}

// forceMerge publishes the store's live set as one segment, at the next epoch.
func forceMerge(s *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := s.snap.Load()
	s.installLocked(&snapshot{epoch: sn.epoch + 1, segs: merged(sn.segs, nil)})
}

func hitsEqual(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc.ID != b[i].Doc.ID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

func hitIDs(hits []Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = fmt.Sprintf("%s:%.6g", h.Doc.ID, h.Score)
	}
	return out
}

// scanIDs is the ids of a time scan's hits, each of which must score 1.
func scanIDs(hits []Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Doc.ID
		if h.Score != 1 {
			out[i] += fmt.Sprintf(" scoring %v", h.Score)
		}
	}
	return out
}

func docIDs(docs []*Document) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.ID
	}
	return out
}

func strsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotReadersUnderChurn is the -race stress for the lock-free read
// path: N readers hammer every read API while one writer churns documents
// and periodically compacts the WAL. Correctness bar: no races, no panics,
// and every reader-observed snapshot is internally consistent (a doc id
// returned by a search resolves via the same method's snapshot).
func TestSnapshotReadersUnderChurn(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), ConceptDim: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 80; i++ {
		if err := s.Put(shadowDoc(r, fmt.Sprintf("c%03d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: replaces, deletes, puts back, compacts
		defer wg.Done()
		defer close(done)
		wr := rand.New(rand.NewSource(11))
		for i := 0; i < 400; i++ {
			id := fmt.Sprintf("c%03d", wr.Intn(80))
			switch wr.Intn(5) {
			case 0:
				// Ignore ErrNotFound: the id may already be deleted.
				_ = s.Delete(id)
			default:
				if err := s.Put(shadowDoc(wr, id, int64(100+i))); err != nil {
					t.Error(err)
					return
				}
			}
			if i%97 == 0 {
				if err := s.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	readers := 6
	qvec := feature.Vector{1, 0, -1, 0.5, 0, 0.25, 0, -0.5}
	for w := 0; w < readers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-done:
					return
				default:
				}
				q := shadowVocab[rr.Intn(len(shadowVocab))]
				for _, h := range s.SearchText(q, 4) {
					if h.Doc == nil || h.Doc.ID == "" {
						t.Error("search returned an empty hit")
						return
					}
				}
				s.SearchHybrid(q, qvec, 0.5, 3)
				s.SearchVector(qvec, 3)
				s.Freshest(5)
				s.Newest("alpha", 4)
				s.RecentSince(0, 1<<60)
				s.Stats()
				s.Len()
				s.Epoch()
				// ErrNotFound is expected under churn; anything else is not.
				if _, err := s.Get(fmt.Sprintf("c%03d", rr.Intn(80))); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("unexpected Get error: %v", err)
					return
				}
				s.All(func(d *Document) bool { return d != nil })
			}
		}()
	}
	wg.Wait()
}

// TestSearchDeterminismUnderChurn is the acceptance determinism check for
// the benchmark scenario: 16 concurrent readers issue the same query while a
// writer continuously re-puts identical documents (epoch churn with constant
// content). Every reader must observe the exact quiesced hit slice — same
// ids, same scores, same order — at every epoch, however many segments.
func TestSearchDeterminismUnderChurn(t *testing.T) {
	s := memStore(t)
	docs := make([]*Document, 40)
	for i := range docs {
		docs[i] = doc(fmt.Sprintf("g%02d", i), "Gold Ring",
			fmt.Sprintf("byzantine gold ring number %d with filigree", i), int64(i), nil)
	}
	// Two distinct terms: order-independent accumulation.
	checkReadsUnderChurn(t, s, docs, "gold filigree", 500, 16)
}

// TestUncachedSearchDeterminismUnderChurn is the same contract with the
// query cache off, so every read runs the search against whatever epoch it
// pins, on documents that carry topics and, every fourth, a concept vector
// for the vector scan.
func TestUncachedSearchDeterminismUnderChurn(t *testing.T) {
	const seed = 22
	s, err := Open(Options{ConceptDim: 8, Seed: seed, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(seed + 2))
	w := func() string { return fmt.Sprintf("term%03d", r.Intn(256)) }
	docs := make([]*Document, 64)
	for i := range docs {
		docs[i] = &Document{
			ID:         fmt.Sprintf("u%04d", i),
			Kind:       KindArticle,
			Title:      w() + " " + w(),
			Text:       w() + " " + w() + " " + w() + " " + w(),
			Topics:     []string{"t" + fmt.Sprint(i%4)},
			CreatedAt:  int64(i),
			Provenance: "test",
		}
		if i%4 == 0 {
			docs[i].Concept = make(feature.Vector, 8)
			for j := range docs[i].Concept {
				docs[i].Concept[j] = r.Float64()
			}
		}
	}
	checkReadsUnderChurn(t, s, docs, docs[0].Title, 8*len(docs), 8)
}

// checkReadsUnderChurn loads docs into s, then has readers issue query while
// one writer re-puts clones of the same documents puts times. Every read must
// return the quiesced hit slice. Every put must publish an epoch, and each
// reader reads once more after the writer's last put, or the identity is
// vacuous.
func checkReadsUnderChurn(t *testing.T, s *Store, docs []*Document, query string, puts, readers int) {
	t.Helper()
	for _, d := range docs {
		if err := s.Put(d.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	expected := s.SearchText(query, 8)
	if len(expected) == 0 {
		t.Fatal("empty baseline result")
	}

	epoch0 := s.Epoch()
	done := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn writer: identical content, epoch bumps only
		defer wg.Done()
		defer close(done)
		for i := 0; i < puts; i++ {
			if err := s.Put(docs[i%len(docs)].Clone()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := false; !last; {
				select {
				case <-done:
					last = true
				default:
				}
				got := s.SearchText(query, 8)
				if !hitsEqual(got, expected) {
					t.Errorf("result diverged under churn:\n got  %v\n want %v",
						hitIDs(got), hitIDs(expected))
					return
				}
				reads.Add(1)
			}
		}()
	}
	wg.Wait()
	if epochs := s.Epoch() - epoch0; epochs != uint64(puts) {
		t.Fatalf("writer published %v epochs over %v puts", epochs, puts)
	}
	if reads.Load() == 0 {
		t.Fatal("no read was checked")
	}
	if got := s.SearchText(query, 8); !hitsEqual(got, expected) {
		t.Fatalf("post-quiesce result diverged: %v vs %v", hitIDs(got), hitIDs(expected))
	}
}

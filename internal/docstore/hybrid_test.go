package docstore

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/feature"
)

// referenceHybrid is the blend SearchHybrid must equal bit for bit, kept as
// it was before the fused pass over ordinals: each ranked pool normalised by
// its own maximum through an id-keyed map, the union scored, all of it
// sorted, the first k kept.
func referenceHybrid(text, vec []Hit, alpha float64, k int) []Hit {
	norm := func(hits []Hit) map[string]float64 {
		out := make(map[string]float64, len(hits))
		var max float64
		for _, h := range hits {
			if h.Score > max {
				max = h.Score
			}
		}
		if max == 0 {
			return out
		}
		for _, h := range hits {
			out[h.Doc.ID] = h.Score / max
		}
		return out
	}
	ts, vs := norm(text), norm(vec)
	byID := make(map[string]*Document, len(text)+len(vec))
	for _, h := range text {
		byID[h.Doc.ID] = h.Doc
	}
	for _, h := range vec {
		byID[h.Doc.ID] = h.Doc
	}
	hits := make([]Hit, 0, len(byID))
	for id, d := range byID {
		hits = append(hits, Hit{Doc: d, Score: (1-alpha)*ts[id] + alpha*vs[id]})
	}
	slices.SortFunc(hits, func(a, b Hit) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(a.Doc.ID, b.Doc.ID)
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// vectorOracle computes the vector pool by brute force over the test's own
// live map: every vector scored by feature.Cosine, ranked, the first k kept.
type vectorOracle map[string]*Document

func (o vectorOracle) pool(q feature.Vector, k int) []Hit {
	return bruteHits(o, k, func(d *Document) (float64, bool) { return feature.Cosine(q, d.Concept), len(d.Concept) > 0 })
}

func requireSameBits(t *testing.T, what string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits %v, reference %d %v", what, len(got), hitIDs(got), len(want), hitIDs(want))
	}
	for i := range got {
		if got[i].Doc.ID != want[i].Doc.ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: hit %d is %s %x, reference %s %x", what, i,
				got[i].Doc.ID, math.Float64bits(got[i].Score), want[i].Doc.ID, math.Float64bits(want[i].Score))
		}
	}
}

// TestHybridMatchesReference holds SearchHybrid (and SearchVector, which
// shares its kernels) to the map-based reference over an exhaustive text pool
// and the brute-force vector pool, in every state a store passes through —
// freshly loaded, under single-write segments that re-put and delete base
// ids, after a forced merge, after deletes — at two sizes. A quarter of the
// vectors sit close to the query, so the pools' cuts fall among near scores;
// one is all zeros. Then clones that put equal scores on every pool's
// boundary and the blend's, so that ids decide them, and — at the larger
// size — the segment lists of tierSchedule.
func TestHybridMatchesReference(t *testing.T) {
	concepts := []feature.Vector{oracleVec, make(feature.Vector, 8)}
	queries := []string{"gold ring", "amber jade mosaic amber", "nosuchterm"}
	sizes := []int{120, 600}
	for _, size := range sizes {
		r := rand.New(rand.NewSource(int64(size)))
		s, err := Open(Options{QueryCacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		live := map[string]*Document{}
		oracle := vectorOracle(live)
		near := func(d *Document) *Document {
			if r.Intn(4) == 0 {
				d.Concept = oracleVec.Clone()
				for i := range d.Concept {
					d.Concept[i] += r.NormFloat64() * 0.02
				}
			}
			return d
		}
		newDoc := func(id string) *Document { return near(shadowDoc(r, id, int64(r.Intn(30)))) }
		id := func(i int) string { return fmt.Sprintf("h%04d", i) }
		check := func(stage string) {
			t.Helper()
			stage = fmt.Sprintf("%d documents, %s", size, stage)
			for _, k := range []int{1, 3, 100, len(live) + 5} {
				pool := max(4*k, 32)
				for _, c := range concepts {
					vec := oracle.pool(c, pool)
					for _, q := range queries {
						text := s.SearchTextExhaustive(q, pool)
						for _, alpha := range []float64{0.25, 0.5, 0.75} {
							what := fmt.Sprintf("%s: SearchHybrid(%q, zero concept %v, %v, %d)", stage, q, c.Norm() == 0, alpha, k)
							requireSameBits(t, what, s.SearchHybrid(q, c, alpha, k), referenceHybrid(text, vec, alpha, k))
						}
					}
				}
				requireSameBits(t, fmt.Sprintf("%s: SearchVector(%d)", stage, k), s.SearchVector(oracleVec, k), oracle.pool(oracleVec, k))
			}
		}

		docs := make([]*Document, size)
		for i := range docs {
			docs[i] = newDoc(id(i))
			live[docs[i].ID] = docs[i]
		}
		docs[8].Concept = make(feature.Vector, 8)
		if err := s.PutBatch(docs); err != nil {
			t.Fatal(err)
		}
		loaded := s.snap.Load()
		if len(loaded.segs) != 1 || len(loaded.segs[0].cx.ids) != size {
			t.Fatal("the load did not compile into one segment")
		}
		check("fresh load")

		put := func(i int) {
			t.Helper()
			d := newDoc(id(i))
			if err := s.Put(d); err != nil {
				t.Fatal(err)
			}
			live[d.ID] = d
		}
		del := func(i int) {
			t.Helper()
			if err := s.Delete(id(i)); err != nil {
				t.Fatal(err)
			}
			delete(live, id(i))
		}
		for i := 0; i < 20; i++ {
			put(size + i) // new ids, in newer segments only
		}
		for i := 0; i < 10; i++ {
			put(3 * i) // base ids re-put: dead below, live above
		}
		for i := 0; i < 5; i++ {
			del(3*i + 1) // base ids deleted: dead only
		}
		del(size + 4) // a newer segment's id deleted
		del(6)        // a re-put id deleted
		put(4)        // a deleted id put back
		if sn := s.snap.Load(); len(sn.segs) < 2 || sn.segs[0].cx != loaded.segs[0].cx || len(sn.segs[0].dead) < 15 {
			t.Fatal("the writes did not go to newer segments over the loaded one")
		}
		check("single-write segments")

		forceMerge(s)
		if sn := s.snap.Load(); len(sn.segs) != 1 || len(sn.segs[0].dead) != 0 {
			t.Fatal("the forced merge left more than one segment, or tombstones")
		}
		check("forced merge")

		for i := 0; i < 15; i++ {
			del(20 + 2*i)
		}
		check("deletes")

		// 110 clones of one short "gold ring" document carrying the query's
		// own vector, written one by one (so they land in several segments)
		// under ids that interleave the others: the 4k-th place of
		// each pool and the k-th of the blend fall among equal scores, and ids
		// decide them.
		for i := 0; i < 110; i++ {
			d := doc(id(2*i)+"c", "gold ring", "gold ring", 7, oracleVec.Clone())
			if err := s.Put(d); err != nil {
				t.Fatal(err)
			}
			live[d.ID] = d
		}
		check("clones")
		tiedAt := func(hits []Hit, n int) bool { return len(hits) > n && hits[n-1].Score == hits[n].Score }
		var tied [3]bool // text pool, vector pool, blend
		for _, k := range []int{1, 3, 100} {
			pool := max(4*k, 32)
			text, vec := s.SearchTextExhaustive("gold ring", pool+1), oracle.pool(oracleVec, pool+1)
			tied[0] = tied[0] || tiedAt(text, pool)
			tied[1] = tied[1] || tiedAt(vec, pool)
			tied[2] = tied[2] || tiedAt(referenceHybrid(text[:min(pool, len(text))], vec[:min(pool, len(vec))], 0.5, k+1), k)
		}
		if tied != [3]bool{true, true, true} {
			t.Fatalf("%d documents: the clones tie at the text pool's, the vector pool's and the blend's boundary: %v, want all", size, tied)
		}

		// The tiers: three segments and then four and five, tombstones in
		// each but the newest, a dead-share merge and a tier merge — both
		// pools collect across the list. On a store of its own, at the
		// larger size only.
		if size == sizes[len(sizes)-1] {
			if s, err = Open(Options{QueryCacheSize: -1}); err != nil {
				t.Fatal(err)
			}
			clear(live)
			tierSchedule(t, s, r, tierOps{
				put: func(_ string, d *Document) {
					t.Helper()
					if err := s.Put(near(d)); err != nil {
						t.Fatal(err)
					}
					live[d.ID] = d
				},
				del: func(_, id string) {
					t.Helper()
					if err := s.Delete(id); err != nil {
						t.Fatal(err)
					}
					delete(live, id)
				},
				batch: func(_ string, docs []*Document) {
					t.Helper()
					for _, d := range docs {
						live[d.ID] = near(d)
					}
					if err := s.PutBatch(docs); err != nil {
						t.Fatal(err)
					}
				},
				shaped: func(stage string, _ *snapshot) { check("tiers, " + stage) },
			})
		}
	}
	scanEdges(t)
}

// scanEdges is TestHybridMatchesReference's part for the exact scan's edges,
// which reads each segment's vector column and scores its candidates four at
// a time before it cuts on the k-th best score: documents without a vector
// between ones with, vectors shorter and longer than the query, tombstones
// inside a group of four, segments whose live vectors are not a multiple of
// four, clones that tie at the cut so that ids decide it — and a thousand
// vectors spread at random, not gathered at the query, asked from fifty
// random directions.
func scanEdges(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	long := append(oracleVec.Clone(), 0.5, -0.25, 1) // longer than every stored vector but one kind
	vec := func(n int) feature.Vector {
		v := make(feature.Vector, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		return v
	}
	open := func() (*Store, map[string]*Document, vectorOracle) {
		s, err := Open(Options{QueryCacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		live := map[string]*Document{}
		return s, live, vectorOracle(live)
	}
	check := func(stage string, s *Store, live map[string]*Document, oracle vectorOracle) {
		t.Helper()
		for _, k := range []int{1, 3, 5, 40, len(live) + 5} {
			pool := max(4*k, 32)
			for _, c := range []feature.Vector{oracleVec, long} {
				text := s.SearchTextExhaustive("gold ring", pool)
				for _, alpha := range []float64{0.25, 0.75} {
					what := fmt.Sprintf("%s: SearchHybrid(query of %d, %v, %d)", stage, len(c), alpha, k)
					requireSameBits(t, what, s.SearchHybrid("gold ring", c, alpha, k), referenceHybrid(text, oracle.pool(c, pool), alpha, k))
				}
				requireSameBits(t, fmt.Sprintf("%s: SearchVector(query of %d, %d)", stage, len(c), k), s.SearchVector(c, k), oracle.pool(c, k))
			}
		}
		requireReadsMatch(t, stage, s, live)
	}
	put := func(s *Store, live map[string]*Document, docs ...*Document) {
		t.Helper()
		for _, d := range docs {
			live[d.ID] = d
		}
		if err := s.PutBatch(docs); err != nil {
			t.Fatal(err)
		}
	}

	s, live, oracle := open()
	base := make([]*Document, 150)
	for i := range base {
		base[i] = shadowDoc(r, fmt.Sprintf("e%04d", 2*i), int64(r.Intn(30)))
		switch i % 6 {
		case 0, 3:
			base[i].Concept = nil
		case 1:
			base[i].Concept = vec(5) // shorter than the query
		case 4:
			base[i].Concept = vec(12) // longer than oracleVec, shorter than long
		default:
			base[i].Concept = vec(8)
		}
	}
	put(s, live, base...)
	check("vectors missing, short and long, interleaved", s, live, oracle)

	// 40 clones of the query's vector, under ids between the others: a batch
	// of 13, then one window each, so the cut of every k below 40 and of the
	// 32-pool falls among equal scores.
	clone := func(i int) *Document {
		return doc(fmt.Sprintf("e%04d", 2*i+1), "gold ring", "gold ring", 7, oracleVec.Clone())
	}
	batch := make([]*Document, 13)
	for i := range batch {
		batch[i] = clone(i)
	}
	put(s, live, batch...)
	for i := 13; i < 40; i++ {
		put(s, live, clone(i))
	}
	if want := oracle.pool(oracleVec, 41); want[4].Score != want[5].Score || want[31].Score != want[32].Score {
		t.Fatal("the clones do not tie at the cut of k = 5 and of the 32-pool")
	}
	check("clones tied at the cut", s, live, oracle)

	// Tombstones: of each seven base ids, three dead, so groups of four
	// straddle them; then the segments' live vectors counted.
	for i := range base {
		if i%7 == 1 || i%7 == 2 || i%7 == 4 {
			if err := s.Delete(base[i].ID); err != nil {
				t.Fatal(err)
			}
			delete(live, base[i].ID)
		}
	}
	odd := 0
	for _, seg := range s.snap.Load().segs {
		n := 0
		for ord := range uint32(len(seg.cx.ids)) {
			if seg.cx.vecAt[ord] < seg.cx.vecAt[ord+1] && !seg.isDead(ord) {
				n++
			}
		}
		if n%4 != 0 {
			odd++
		}
	}
	if odd == 0 || len(s.snap.Load().segs) < 2 {
		t.Fatal("no segment holds a number of live vectors that is not a multiple of four")
	}
	check("tombstones inside groups of four", s, live, oracle)

	// A thousand vectors spread at random over every direction, and fifty
	// queries as spread: no pool is gathered at its query, so every k-th best
	// score lies among many near ones.
	s, live, oracle = open()
	spread := make([]*Document, 1000)
	for i := range spread {
		spread[i] = shadowDoc(r, fmt.Sprintf("s%04d", i), int64(r.Intn(30)))
		spread[i].Concept = vec(8)
	}
	put(s, live, spread...)
	check("a thousand spread vectors", s, live, oracle)
	text := s.SearchTextExhaustive("gold ring", 32)
	for qi := 0; qi < 50; qi++ {
		q := vec(8)
		for _, k := range []int{1, 3, 10} {
			requireSameBits(t, fmt.Sprintf("spread: query %d: SearchVector(%d)", qi, k), s.SearchVector(q, k), oracle.pool(q, k))
		}
		requireSameBits(t, fmt.Sprintf("spread: query %d: SearchHybrid(3)", qi), s.SearchHybrid("gold ring", q, 0.5, 3), referenceHybrid(text, oracle.pool(q, 32), 0.5, 3))
	}
}

// TestVectorScanSkipsNonCandidates asks for at least as many hits as there
// are live vectors, so that θ is −∞ and only the scan's marks keep a document
// out, from a snapshot holding more documents than candidates: a segment of
// groups of four whose only live member is the last — the others dead or
// without a vector — then a segment whose every document is dead, then one
// with a vector and a document without. A store drops a segment with nothing
// live from its list, so the test marks the middle one dead itself, in a
// snapshot of its own.
func TestVectorScanSkipsNonCandidates(t *testing.T) {
	s, err := Open(Options{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]*Document{}
	oracle := vectorOracle(live)
	var dead []string
	put := func(docs ...*Document) {
		t.Helper()
		if err := s.PutBatch(docs); err != nil {
			t.Fatal(err)
		}
	}
	first := make([]*Document, 12)
	for i := range first {
		first[i] = doc(fmt.Sprintf("g%02d", i), "gold ring", "gold ring", int64(i), nil)
		switch i % 4 {
		case 3: // the group's only live member
			first[i].Concept = feature.Vector{0, 1, 0, 0, 0, 0, 0, float64(i)}
			live[first[i].ID] = first[i]
		case 0, 1:
			first[i].Concept = oracleVec.Clone() // the query's own vector, dead
			dead = append(dead, first[i].ID)
		}
	}
	put(first...)
	middle := make([]*Document, 5)
	for i := range middle {
		middle[i] = doc(fmt.Sprintf("m%02d", i), "gold ring", "gold ring", 20, oracleVec.Clone())
	}
	put(middle...)
	last := doc("z00", "gold ring", "gold ring", 30, feature.Vector{-1, 0, 0, 1})
	live[last.ID] = last
	put(last, doc("z01", "gold ring", "gold ring", 31, nil))
	for _, id := range dead {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	sn := s.snap.Load()
	if len(sn.segs) != 3 || len(sn.segs[1].cx.ids) != len(middle) {
		t.Fatalf("%d segments, want the three batches'", len(sn.segs))
	}
	held := &snapshot{epoch: sn.epoch, segs: slices.Clone(sn.segs)}
	held.segs[1] = held.segs[1].withDead([]uint32{0, 1, 2, 3, 4})
	slots := 0
	for _, seg := range held.segs {
		slots += len(seg.cx.ids)
	}
	sc := getScratch()
	defer putScratch(sc)
	tokens := s.tokens.tokenize("gold ring")
	for _, k := range []int{len(live), len(live) + 1, slots, slots + 5} {
		got := held.assembleHits(held.searchVectorRaw(oracleVec, k, sc))
		requireSameBits(t, fmt.Sprintf("vector scan, k = %d", k), got, oracle.pool(oracleVec, k))
		if len(got) != len(live) {
			t.Fatalf("vector scan, k = %d: %d hits %v, want the %d live vectors", k, len(got), hitIDs(got), len(live))
		}
		text := held.searchTextExhaustive(tokens, max(4*k, 32), sc)
		requireSameBits(t, fmt.Sprintf("hybrid, k = %d", k), held.searchHybridRaw(tokens, oracleVec, 0.5, k, sc),
			referenceHybrid(text, oracle.pool(oracleVec, max(4*k, 32)), 0.5, k))
	}
}

// TestHybridAllocatesOnlyItsResult pins what DESIGN.md states: with its
// scratch warm, a hybrid search over a snapshot of several segments and a
// thousand documents allocates once, the []Hit it returns, whatever its pool.
func TestHybridAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	s := memStore(t)
	r := rand.New(rand.NewSource(9))
	docs := make([]*Document, 1000)
	for i := range docs {
		docs[i] = shadowDoc(r, fmt.Sprintf("a%04d", i), int64(i))
		if i%3 == 0 {
			docs[i].Concept = oracleVec.Clone() // ties at the query: ids decide the pools
		}
	}
	if err := s.PutBatch(docs[:900]); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[900:] {
		if err := s.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	sn := s.snap.Load()
	if len(sn.segs) < 3 {
		t.Fatalf("%d segments: the snapshot should hold several", len(sn.segs))
	}
	tokens := s.tokens.tokenize("gold ring amber")
	sc := getScratch()
	defer putScratch(sc)
	for _, k := range []int{3, 100} { // a 32-pool and a 400-pool
		sn.searchHybridRaw(tokens, oracleVec, 0.5, k, sc)
		if got := testing.AllocsPerRun(20, func() { sn.searchHybridRaw(tokens, oracleVec, 0.5, k, sc) }); got != 1 {
			t.Fatalf("k = %d: a warm hybrid search makes %v allocations, want 1 (its result)", k, got)
		}
	}
}

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
// live map: every vector scored by feature.Cosine, and — for a store past
// 256 documents — the probe's candidates found by comparing each document's
// signatures with the query's, table by table. It counts which branch each
// pool came from.
type vectorOracle struct {
	s           *Store
	live        map[string]*Document
	probe, scan int
}

func (o *vectorOracle) pool(q feature.Vector, k int) []Hit {
	score := func(d *Document) (float64, bool) { return feature.Cosine(q, d.Concept), len(d.Concept) > 0 }
	if len(o.live) > 256 {
		lsh := o.s.snap.Load().planes
		qs := lsh.Signatures(q)
		found := bruteHits(o.live, k, func(d *Document) (float64, bool) {
			if len(d.Concept) == 0 {
				return 0, false
			}
			for t, sig := range lsh.Signatures(d.Concept) {
				if sig == qs[t] {
					return score(d)
				}
			}
			return 0, false
		})
		if len(found) >= k {
			o.probe++
			return found
		}
	}
	o.scan++
	return bruteHits(o.live, k, score)
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
// freshly loaded, under a live overlay that masks, re-puts and deletes base
// ids, after a forced freeze, after deletes — at a size the exact scan serves
// (at most 256 documents) and one where the LSH probe answers when it finds
// the pool and the scan when it does not. A quarter of the vectors sit close
// to the query so that the probe does fill the small pools; one is all zeros.
// Then clones that put equal scores on every pool's boundary and the blend's,
// so that ids decide them, and — at the larger size — the segment lists of
// tierSchedule.
func TestHybridMatchesReference(t *testing.T) {
	concepts := []feature.Vector{oracleVec, make(feature.Vector, 8)}
	queries := []string{"gold ring", "amber jade mosaic amber", "nosuchterm"}
	for _, size := range []int{120, 600} {
		r := rand.New(rand.NewSource(int64(size)))
		s, err := Open(Options{ConceptDim: 8, Seed: 5, QueryCacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		live := map[string]*Document{}
		oracle := &vectorOracle{s: s, live: live}
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
		if sn := s.snap.Load(); len(sn.ov.byID) != 0 || len(sn.segs) != 1 || len(sn.segs[0].cx.ids) != size {
			t.Fatal("the load did not freeze into one segment")
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
			put(size + i) // new ids, in the overlay only
		}
		for i := 0; i < 10; i++ {
			put(3 * i) // base ids re-put: masked below, live above
		}
		for i := 0; i < 5; i++ {
			del(3*i + 1) // base ids deleted: masked only
		}
		del(size + 4) // an overlay id deleted
		del(6)        // a re-put id deleted
		put(4)        // a deleted id put back
		if sn := s.snap.Load(); len(sn.segs) != 1 || len(sn.ov.masked[0]) < 15 || len(sn.ov.extras) == 0 || len(sn.segs[0].cx.ids) != size {
			t.Fatal("the writes did not stay in one overlay over the loaded segment")
		}
		check("live overlay")

		s.mu.Lock()
		s.freezeLocked(s.snap.Load(), s.snap.Load().ov)
		s.mu.Unlock()
		if sn := s.snap.Load(); len(sn.ov.byID) != 0 || len(sn.ov.masked) != 0 {
			t.Fatal("the forced freeze left an overlay")
		}
		check("forced freeze")

		for i := 0; i < 15; i++ {
			del(20 + 2*i)
		}
		check("deletes")

		// 110 clones of one short "gold ring" document carrying the query's
		// own vector, written one by one (so they land in two segments and the
		// overlay) under ids that interleave the others: the 4k-th place of
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

		// The tiers: three segments and then four, tombstones in each, under
		// an overlay that masks all of them, a dead-share merge and a tier
		// merge — both pools collect across the list. On a store of its own,
		// past the probe's 256 documents.
		if size > 256 {
			if s, err = Open(Options{ConceptDim: 8, Seed: 5, QueryCacheSize: -1}); err != nil {
				t.Fatal(err)
			}
			clear(live)
			oracle.s = s
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

		switch {
		case size <= 256 && oracle.probe != 0:
			t.Fatalf("%d documents: %d pools came from a probe; the exact scan serves a store this small", size, oracle.probe)
		case size > 256 && (oracle.probe == 0 || oracle.scan == 0):
			t.Fatalf("%d documents: %d pools from the probe, %d from the scan: both branches must run", size, oracle.probe, oracle.scan)
		}
	}
}

package docstore

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// blockmaxVocab is small on purpose: with hundreds of docs over 24 terms
// most postings lists span multiple 128-entry blocks, so the block-max walk
// has real skip decisions to make on every query.
var blockmaxVocab = []string{
	"gold", "silver", "bronze", "ring", "brooch", "amulet",
	"byzantine", "etruscan", "roman", "filigree", "amber", "jade",
	"pendant", "coin", "mosaic", "pearl", "ivory", "garnet",
	"seal", "vase", "torc", "fibula", "cameo", "diadem",
}

// blockmaxDoc generates a document whose length grows with the numeric part
// of its id. Ordinals are assigned in ascending-ID order, so later blocks
// hold systematically longer (lower-ratio) documents — the across-block
// score-bound variance block-max skipping feeds on. (A corpus with i.i.d.
// lengths puts a near-max-ratio doc in every 128-doc block, and then no
// block bound ever drops below the top-k threshold.)
func blockmaxDoc(r *rand.Rand, id string, at int64) *Document {
	idx, err := strconv.Atoi(id[1:])
	if err != nil {
		panic("blockmaxDoc ids must be letter+digits: " + id)
	}
	title := blockmaxVocab[r.Intn(len(blockmaxVocab))]
	text := ""
	for i := 0; i < 3+idx/25+r.Intn(6); i++ {
		text += blockmaxVocab[r.Intn(len(blockmaxVocab))] + " "
	}
	return doc(id, title, text, at, nil)
}

func blockmaxQueries(r *rand.Rand, n int) []string {
	qs := make([]string, n)
	for i := range qs {
		q := ""
		for j := 0; j <= r.Intn(4); j++ {
			if j > 0 {
				q += " "
			}
			q += blockmaxVocab[r.Intn(len(blockmaxVocab))]
		}
		qs[i] = q
	}
	return qs
}

// requireBlockmaxMatches asserts SearchText (block-max early termination)
// is bit-identical — ids, scores, order — to SearchTextExhaustive (same
// accumulation code, no skipping) for every (query, k) pair.
func requireBlockmaxMatches(t *testing.T, s *Store, queries []string, stage string) {
	t.Helper()
	for _, q := range queries {
		for _, k := range []int{1, 3, 10, 50, -1} {
			got := s.SearchText(q, k)
			want := s.SearchTextExhaustive(q, k)
			if !hitsEqual(got, want) {
				t.Fatalf("%s: SearchText(%q, %d) diverged from exhaustive:\n blockmax:  %v\n exhaustive: %v",
					stage, q, k, hitIDs(got), hitIDs(want))
			}
		}
	}
}

// TestBlockMaxMatchesExhaustive is the acceptance property test for the
// compiled read path: on a randomized corpus under puts, replaces, and
// deletes — crossing freeze boundaries so queries hit base-only,
// overlay-merged, and masked-heavy snapshots — the block-max scorer must
// return exactly what the exhaustive scorer returns, at every step,
// including after crash recovery (reopen) and after compaction (cold start
// from the v2 snapshot file).
func TestBlockMaxMatchesExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	queries := blockmaxQueries(r, 24)

	// Phase 1: in-memory store under churn.
	s, err := Open(Options{ConceptDim: 8, Seed: 7, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{}
	for step := 0; step < 700; step++ {
		switch op := r.Intn(10); {
		case op < 6 || len(ids) == 0:
			id := fmt.Sprintf("b%04d", len(ids))
			ids = append(ids, id)
			if err := s.Put(blockmaxDoc(r, id, int64(step))); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			if err := s.Put(blockmaxDoc(r, ids[r.Intn(len(ids))], int64(step))); err != nil {
				t.Fatal(err)
			}
		default:
			_ = s.Delete(ids[r.Intn(len(ids))]) // ErrNotFound is fine under churn
		}
		if step%67 == 0 || step > 680 {
			requireBlockmaxMatches(t, s, queries, fmt.Sprintf("mem step %d", step))
		}
	}

	memStats := s.Stats()

	// Phase 2: durable store — recovery replay and v2 snapshot cold start.
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 7, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := d.Put(blockmaxDoc(r, fmt.Sprintf("d%03d", r.Intn(200)), int64(i))); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			_ = d.Delete(fmt.Sprintf("d%03d", r.Intn(200)))
		}
	}
	requireBlockmaxMatches(t, d, queries, "durable pre-close")
	before := make(map[string][]Hit, len(queries))
	for _, q := range queries {
		before[q] = d.SearchText(q, 10)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: WAL replay (legacy path — nothing compacted yet).
	d, err = Open(Options{Dir: dir, ConceptDim: 8, Seed: 7, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if got := d.SearchText(q, 10); !hitsEqual(got, before[q]) {
			t.Fatalf("post-reopen SearchText(%q) diverged: %v vs %v", q, hitIDs(got), hitIDs(before[q]))
		}
	}
	requireBlockmaxMatches(t, d, queries, "post-reopen")

	// Compact (writes the v2 compiled snapshot), reopen (loads it), write
	// more on top of the recovered base, and keep matching throughout.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Open(Options{Dir: dir, ConceptDim: 8, Seed: 7, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, q := range queries {
		if got := d.SearchText(q, 10); !hitsEqual(got, before[q]) {
			t.Fatalf("post-compact cold start SearchText(%q) diverged: %v vs %v", q, hitIDs(got), hitIDs(before[q]))
		}
	}
	requireBlockmaxMatches(t, d, queries, "post-compact cold start")
	for i := 0; i < 150; i++ {
		if err := d.Put(blockmaxDoc(r, fmt.Sprintf("d%03d", r.Intn(220)), int64(1000+i))); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			_ = d.Delete(fmt.Sprintf("d%03d", r.Intn(220)))
		}
	}
	requireBlockmaxMatches(t, d, queries, "post-compact churn")

	// The walk must actually be skipping blocks, not passing vacuously by
	// decoding everything. The in-memory store carries most of the corpus
	// (and therefore most of the skip opportunities); the durable store's
	// count rides along.
	st := d.Stats()
	if memStats.BlocksSkipped+st.BlocksSkipped == 0 {
		t.Fatalf("block-max never skipped a block (decoded=%d): early termination is not engaging",
			memStats.BlocksDecoded+st.BlocksDecoded)
	}
}

// TestWindowEdges pins the walk at its window boundaries. The base holds
// three windows and a tail, every document carries "common", and the only
// short documents — the best answers to it — sit on ordinals k·window−1,
// k·window and k·window+1, inside blocks of long ones, and carry "edge" too;
// "sparse" lives in the first and last stretch only, so whole windows hold
// none of its postings beside a term that is everywhere. Lengths grow with
// the ordinal, so block bounds fall and the pruned walk has blocks to pass.
// Block-max, exhaustive and the oracle must agree with everything live, then
// with tombstones on the edge ordinals themselves (deleted, and replaced by an
// overlay document), for k below, at and above the match count and unbounded.
func TestWindowEdges(t *testing.T) {
	const window = windowSize
	const n = 3*window + 300
	r := rand.New(rand.NewSource(29))
	s, err := Open(Options{ConceptDim: 8, Seed: 7, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	id := func(ord int) string { return fmt.Sprintf("w%04d", ord) }
	var edges []int
	for k := 1; k <= 3; k++ {
		edges = append(edges, k*window-1, k*window, k*window+1)
	}
	live := map[string]*Document{}
	bulk := make([]*Document, n)
	for i := range bulk {
		text := "common"
		if i < 50 || i >= 3*window+40 {
			text += " sparse"
		}
		for j := 0; j < 4+i/150+r.Intn(4); j++ {
			text += " " + blockmaxVocab[r.Intn(6)]
		}
		bulk[i] = doc(id(i), "", text, int64(i), nil)
	}
	for _, e := range edges {
		bulk[e] = doc(id(e), "", "common edge", int64(e), nil)
	}
	for _, d := range bulk {
		live[d.ID] = d
	}
	if err := s.PutBatch(bulk); err != nil {
		t.Fatal(err)
	}
	base := s.snap.Load().segs[0]
	for i, e := range edges {
		if got := base.cx.ords[id(e)]; int(got) != e {
			t.Fatalf("edge %d sits on ordinal %d, not %d", i, got, e)
		}
	}

	queries := []string{"common", "edge", "sparse", "common edge", "sparse common", "edge sparse gold", "gold common common silver"}
	ks := []int{1, 3, len(edges), len(edges) + 5, n + 7, -1}
	requireTextMatches(t, "all live", s, live, queries, ks)

	// Tombstones on window edges: one of each kind deleted, the middle one
	// of the second triple replaced (a tombstone and an overlay document).
	for _, e := range []int{window - 1, 2 * window, 3*window + 1} {
		if err := s.Delete(id(e)); err != nil {
			t.Fatal(err)
		}
		delete(live, id(e))
	}
	repl := doc(id(2*window-1), "", "edge edge common gold", int64(n), nil)
	if err := s.Put(repl); err != nil {
		t.Fatal(err)
	}
	live[repl.ID] = repl
	sn := s.snap.Load()
	if len(sn.segs) != 1 || sn.segs[0] != base || len(sn.ov.masked[0]) != 4 || len(sn.ov.byID) != 1 {
		t.Fatalf("masked %v, overlay %d: the edge writes were to stay in one overlay", sn.ov.masked, len(sn.ov.byID))
	}
	requireTextMatches(t, "edges tombstoned", s, live, queries, ks)

	if st := s.Stats(); st.BlocksSkipped == 0 {
		t.Fatalf("no block skipped (decoded %d): the pruned walk never pruned", st.BlocksDecoded)
	}
}

// TestTFWeightBits: the table is the expression's values, not an
// approximation of them — every score and every block bound is built from
// these bits, and the oracle computes them with math.Log directly.
func TestTFWeightBits(t *testing.T) {
	for tf := 1; tf < len(tfWeights)+64; tf++ {
		if got, want := tfWeight(tf), 1+math.Log(float64(tf)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tfWeight(%d) = %x, 1+ln tf = %x", tf, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if tfWeight(1) != 1 {
		t.Fatalf("tfWeight(1) = %v", tfWeight(1))
	}
}

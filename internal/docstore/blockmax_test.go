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
// deletes — crossing tier merges so queries hit one-segment, many-segment
// and tombstone-heavy snapshots — the block-max scorer must
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
// with tombstones on the edge ordinals themselves (deleted, and replaced by a
// newer segment's document), for k below, at and above the match count and unbounded.
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
		if got, _ := base.cx.ord(id(e)); int(got) != e {
			t.Fatalf("edge %d sits on ordinal %d, not %d", i, got, e)
		}
	}

	queries := []string{"common", "edge", "sparse", "common edge", "sparse common", "edge sparse gold", "gold common common silver"}
	ks := []int{1, 3, len(edges), len(edges) + 5, n + 7, -1}
	requireTextMatches(t, "all live", s, live, queries, ks)

	// Tombstones on window edges: one of each kind deleted, the middle one
	// of the second triple replaced (a tombstone and a document in a segment
	// of its own).
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
	if len(sn.segs) != 2 || sn.segs[0].cx != base.cx || len(sn.segs[0].dead) != 4 || sn.segs[1].live() != 1 {
		t.Fatalf("%d segments, the base's %v dead: the edge writes were to tombstone the base and add one segment", len(sn.segs), sn.segs[0].dead)
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

// gradientStore loads the length-gradient corpus, one document per Put: three
// vocabulary tiers — common terms in most documents, rare ones in a fraction
// of a percent — and a document length that grows by one term every 32
// documents, the shape of an archive sorted by time. The gradient is what
// makes per-block bounds vary; an i.i.d. corpus puts a near-best document in
// every block and no bound ever drops below the threshold. It returns the
// store, the document generator for later writes, and two query classes,
// each pairing a selective term that pins the threshold high with common
// terms whose tail blocks fall under it.
func gradientStore(t *testing.T, cacheSize int) (*Store, func(r *rand.Rand, i int) *Document, [2][]string) {
	t.Helper()
	const seed, nDocs = 25, 2048 // two walk windows: one holds no skip
	tier := func(format string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf(format, i)
		}
		return out
	}
	common, mid, rare := tier("common%02d", 8), tier("mid%03d", 64), tier("rare%04d", 256)
	word := func(r *rand.Rand) string {
		switch p := r.Float64(); {
		case p < 0.50:
			return common[r.Intn(len(common))]
		case p < 0.85:
			return mid[r.Intn(len(mid))]
		default:
			return rare[r.Intn(len(rare))]
		}
	}
	mkDoc := func(r *rand.Rand, i int) *Document {
		n := 4 + i/32 + r.Intn(4)
		text := word(r)
		for j := 1; j < n; j++ {
			text += " " + word(r)
		}
		return doc(fmt.Sprintf("g%05d", i), word(r), text, int64(i), nil)
	}
	s, err := Open(Options{ConceptDim: 8, Seed: seed, QueryCacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < nDocs; i++ {
		if err := s.Put(mkDoc(r, i)); err != nil {
			t.Fatal(err)
		}
	}
	qr := rand.New(rand.NewSource(seed + 1))
	pick := func(tier []string) string { return tier[qr.Intn(len(tier))] }
	var classes [2][]string
	for i := 0; i < 16; i++ {
		classes[0] = append(classes[0], pick(rare)+" "+pick(common))
	}
	for i := 0; i < 16; i++ {
		classes[1] = append(classes[1], pick(mid)+" "+pick(common)+" "+pick(common))
	}
	return s, mkDoc, classes
}

// TestBlockMaxSkipsOnLengthGradient is the case for the bound check: on the
// length-gradient corpus the walk skips postings blocks, and stays
// bit-identical to the exhaustive scorer on the loaded segments and again
// after 48 single writes, each a segment of its own until the tiers merge it.
func TestBlockMaxSkipsOnLengthGradient(t *testing.T) {
	const k = 10
	s, mkDoc, classes := gradientStore(t, -1)
	st0 := s.Stats()
	for _, cl := range classes {
		for _, q := range cl {
			s.SearchText(q, k)
		}
	}
	st1 := s.Stats()
	dec, skp := st1.BlocksDecoded-st0.BlocksDecoded, st1.BlocksSkipped-st0.BlocksSkipped
	if ratio := float64(skp) / float64(max(dec+skp, 1)); ratio <= 0 {
		t.Fatalf("no postings blocks skipped: %d decoded", dec)
	}
	check := func(stage string) {
		for _, cl := range classes {
			for _, q := range cl {
				if got, want := s.SearchText(q, k), s.SearchTextExhaustive(q, k); !hitsEqual(got, want) {
					t.Fatalf("%s: SearchText(%q) diverged from exhaustive:\n blockmax:   %v\n exhaustive: %v", stage, q, hitIDs(got), hitIDs(want))
				}
			}
		}
	}
	check("loaded")
	r := rand.New(rand.NewSource(27))
	for i := 0; i < 48; i++ {
		if err := s.Put(mkDoc(r, 2048+i)); err != nil {
			t.Fatal(err)
		}
	}
	check("after single writes")
}

// TestSearchTextAllocs pins what a local search keeps: an uncached search
// retains the returned []Hit, with a couple of mallocs of slack for
// incidental runtime allocation, and a cache hit — a byte-key lookup
// returning the shared hit slice — retains nothing.
func TestSearchTextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on allocation-free paths")
	}
	const k = 10
	uncached, _, classes := gradientStore(t, -1)
	q0 := classes[0][0]
	if n := testing.AllocsPerRun(512, func() { uncached.SearchText(q0, k) }); n > 4 {
		t.Fatalf("uncached SearchText allocates %v/op, want ~1", n)
	}
	cached, _, _ := gradientStore(t, 0) // default cache size
	if n := testing.AllocsPerRun(512, func() { cached.SearchText(q0, k) }); n != 0 {
		t.Fatalf("cache-hit SearchText allocates: %v allocs/op", n)
	}
}

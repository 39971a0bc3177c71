package bench

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/docstore"
	"repro/internal/metrics"
)

// E25BlockMaxSearch checks the block-max top-k read path against the
// exhaustive scorer it must be bit-identical to. The corpus is shaped so
// early termination has something to do: a handful of common terms appear
// in most documents (long postings lists, many 128-entry blocks), rare
// terms pin the heap threshold high after a few hits, and document length
// grows with insertion order so later blocks carry provably lower score
// bounds. Queries pair a rare term with a common one — the selective term
// raises theta, the common term's tail blocks fall under it and are skipped
// without decoding. Reported per query class: postings blocks decoded and
// skipped; plus per-search allocation counts on the uncached and cache-hit
// paths (runtime.MemStats deltas, not estimates), and the bit-identity
// check — every query must return the identical hit slice (ids and
// float-identical scores) under both scorers, including after single writes
// have added small segments beside the large ones.
func E25BlockMaxSearch(seed int64, scale float64) *Result {
	// At least two walk windows of 1 024 ordinals: written one document at a
	// time, a corpus merges into one segment, and a segment of one window
	// fills the heap before any bound is tested — nothing is left to skip.
	nDocs := scaleInt(2048, scale, 2048)
	const k = 10

	// Three vocabulary tiers: common terms land in most documents, rare
	// terms in a fraction of a percent. The i/32 gradient is what makes
	// per-block max-score bounds vary — an i.i.d. corpus puts a near-best
	// document in every block and no bound ever drops below theta.
	tier := func(format string, n int) []string {
		t := make([]string, n)
		for i := range t {
			t[i] = fmt.Sprintf(format, i)
		}
		return t
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
	mkDoc := func(r *rand.Rand, i int) *docstore.Document {
		n := 4 + i/32 + r.Intn(4)
		text := word(r)
		for j := 1; j < n; j++ {
			text += " " + word(r)
		}
		return &docstore.Document{
			ID:         fmt.Sprintf("e25-%05d", i),
			Kind:       docstore.KindArticle,
			Title:      word(r),
			Text:       text,
			CreatedAt:  int64(i),
			Provenance: "e25",
		}
	}
	open := func(cacheSize int) *docstore.Store {
		s, err := docstore.Open(docstore.Options{
			ConceptDim: 8, Seed: seed, QueryCacheSize: cacheSize,
		})
		if err != nil {
			panic(err)
		}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < nDocs; i++ {
			if err := s.Put(mkDoc(r, i)); err != nil {
				panic(err)
			}
		}
		return s
	}

	qr := rand.New(rand.NewSource(seed + 1))
	pick := func(tier []string) string { return tier[qr.Intn(len(tier))] }
	classes := []struct {
		name    string
		queries []string
	}{{name: "rare+common"}, {name: "mid+common x3"}}
	for i := 0; i < 16; i++ {
		classes[0].queries = append(classes[0].queries, pick(rare)+" "+pick(common))
	}
	for i := 0; i < 16; i++ {
		classes[1].queries = append(classes[1].queries, pick(mid)+" "+pick(common)+" "+pick(common))
	}

	// Uncached store: every SearchText call executes the block-max path,
	// every SearchTextExhaustive call the reference path.
	s := open(-1)
	defer s.Close()

	table := metrics.NewTable("E25: block-max top-k search vs exhaustive scoring",
		"check", "blocks decoded", "blocks skipped", "value")
	headline := map[string]float64{}

	// Skip accounting covers block-max searches only: the exhaustive scorer
	// decodes everything by design.
	var dec, skp uint64
	for _, cl := range classes {
		st0 := s.Stats()
		for _, q := range cl.queries {
			s.SearchText(q, k)
		}
		st1 := s.Stats()
		d, sk := st1.BlocksDecoded-st0.BlocksDecoded, st1.BlocksSkipped-st0.BlocksSkipped
		table.AddRow("skip ratio, "+cl.name, d, sk, float64(sk)/float64(max(d+sk, 1)))
		dec, skp = dec+d, skp+sk
	}
	headline["blocks_skip_ratio"] = float64(skp) / float64(max(dec+skp, 1))

	// Uncached searches retain exactly the returned hit slice per call;
	// cache hits must retain nothing. The mean is floored — the integer
	// division testing.AllocsPerRun applies — so a stray runtime malloc in
	// the 512-op window cannot smear a zero-alloc path into 0.004.
	q0 := classes[0].queries[0]
	headline["allocs_uncached"] = math.Floor(allocsPer(512, func() { s.SearchText(q0, k) }))
	cached := open(0) // default cache size
	headline["allocs_cache_hit"] = math.Floor(allocsPer(512, func() { cached.SearchText(q0, k) }))
	cached.Close()
	table.AddRow("allocs/op uncached", "-", "-", headline["allocs_uncached"])
	table.AddRow("allocs/op cache hit", "-", "-", headline["allocs_cache_hit"])

	// Bit-identity: block-max must return exactly the exhaustive result —
	// same ids, float-identical scores — on the loaded segments and again
	// after 48 single writes, each a segment of its own until the tiers
	// merge it.
	identical := true
	check := func() {
		for _, cl := range classes {
			for _, q := range cl.queries {
				if !sameHits(s.SearchText(q, k), s.SearchTextExhaustive(q, k)) {
					identical = false
				}
			}
		}
	}
	check()
	r := rand.New(rand.NewSource(seed + 2))
	for i := 0; i < 48; i++ {
		if err := s.Put(mkDoc(r, nDocs+i)); err != nil {
			panic(err)
		}
	}
	check()
	headline["identical"] = boolAsFloat(identical)
	table.AddRow("bit-identical to exhaustive", "-", "-", identical)

	return &Result{ID: "E25", Table: table, Headline: headline}
}

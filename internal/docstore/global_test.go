package docstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/feature"
	"repro/internal/telemetry"
)

// buildGlobalFromSelf assembles the GlobalStats a scatter router would ship
// for query, using the store itself as the only shard. On a single shard
// holding the whole corpus the global figures equal the local ones, so
// SearchTextGlobal must reproduce SearchText bit-for-bit.
func buildGlobalFromSelf(s *Store, query string) *GlobalStats {
	terms := feature.Tokenize(query)
	// Distinct terms in first-appearance order, like the query compiler.
	uniq := terms[:0:0]
	for _, t := range terms {
		seen := false
		for _, u := range uniq {
			if u == t {
				seen = true
				break
			}
		}
		if !seen {
			uniq = append(uniq, t)
		}
	}
	total, _, stats := s.TermStats(uniq)
	gs := &GlobalStats{TotalDocs: total, Terms: uniq, DF: make([]uint64, len(uniq))}
	for i, st := range stats {
		gs.DF[i] = st.DF
	}
	return gs
}

// TestSearchTextGlobalMatchesLocal pins the distributed-scoring invariant
// at its base case: global statistics gathered from a store and fed back to
// the same store produce bit-identical hits (IDs, order, and float scores)
// across puts, replacements, and deletes — including overlay states where
// local df bookkeeping is the base-minus-masked-plus-overlay merge.
func TestSearchTextGlobalMatchesLocal(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s, err := Open(Options{ConceptDim: 8, Seed: 3, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	queries := []string{"gold ring", "byzantine mosaic coin", "amber", "filigree pendant jade"}
	check := func(step int) {
		t.Helper()
		for _, q := range queries {
			gs := buildGlobalFromSelf(s, q)
			local := s.SearchText(q, 5)
			global := s.SearchTextGlobal(q, 5, gs)
			if !hitsEqual(local, global) {
				t.Fatalf("step %d: global scoring diverged for %q:\n local:  %v\n global: %v",
					step, q, hitIDs(local), hitIDs(global))
			}
		}
	}
	ids := []string{}
	for step := 0; step < 300; step++ {
		switch {
		case len(ids) < 20 || r.Intn(10) < 6:
			id := fmt.Sprintf("g%d", len(ids))
			ids = append(ids, id)
			if err := s.Put(shadowDoc(r, id, int64(step))); err != nil {
				t.Fatal(err)
			}
		case r.Intn(2) == 0:
			if err := s.Put(shadowDoc(r, ids[r.Intn(len(ids))], int64(step))); err != nil {
				t.Fatal(err)
			}
		default:
			if err := s.Delete(ids[r.Intn(len(ids))]); err != nil && err != ErrNotFound {
				t.Fatal(err)
			}
		}
		if step%37 == 0 {
			check(step)
		}
	}
	check(300)
}

// TestTermStatsLiveCounts verifies TermStats against a brute-force count
// over the live documents: df counts exactly the docs carrying the term,
// and MaxRatio upper-bounds every live document's (1+ln tf)/√(len+1) ratio
// (it may exceed the live max when masked base docs still back the
// compiled figure — that only loosens a bound, never breaks it).
func TestTermStatsLiveCounts(t *testing.T) {
	s := memStore(t)
	defer s.Close()
	put := func(id, text string) {
		if err := s.Put(doc(id, "", text, 1, nil)); err != nil {
			t.Fatal(err)
		}
	}
	put("a", "gold gold ring")
	put("b", "gold coin")
	put("c", "mosaic coin coin")
	put("a", "silver ring") // replace: "gold" leaves a, now df 1
	if err := s.Delete("c"); err != nil {
		t.Fatal(err)
	}
	total, epoch, stats := s.TermStats([]string{"gold", "coin", "ring", "unseen"})
	if total != 2 {
		t.Fatalf("total = %d, want 2", total)
	}
	if epoch != s.Epoch() {
		t.Fatalf("epoch = %d, want %d", epoch, s.Epoch())
	}
	wantDF := []uint64{1, 1, 1, 0}
	for i, st := range stats {
		if st.DF != wantDF[i] {
			t.Fatalf("df[%d] = %d, want %d (stats %+v)", i, st.DF, wantDF[i], stats)
		}
	}
	if stats[3].MaxRatio != 0 {
		t.Fatalf("unseen term has MaxRatio %v", stats[3].MaxRatio)
	}
	if stats[0].MaxRatio <= 0 || stats[1].MaxRatio <= 0 {
		t.Fatalf("live terms need positive ratios: %+v", stats)
	}
}

// TestSearchTextGlobalNilFallback: a nil GlobalStats must behave exactly
// like SearchText (the unsharded path).
func TestSearchTextGlobalNilFallback(t *testing.T) {
	s := memStore(t)
	defer s.Close()
	if err := s.Put(doc("d1", "gold ring", "gold filigree ring", 1, nil)); err != nil {
		t.Fatal(err)
	}
	if !hitsEqual(s.SearchTextGlobal("gold", 3, nil), s.SearchText("gold", 3)) {
		t.Fatal("nil stats diverged from SearchText")
	}
}

// statsOf is the GlobalStats a router would build from a store that holds
// the whole corpus: the monolith's own figures for terms.
func statsOf(mono *Store, terms ...string) *GlobalStats {
	total, _, stats := mono.TermStats(terms)
	gs := &GlobalStats{TotalDocs: total, Terms: terms, DF: make([]uint64, len(terms))}
	for i, st := range stats {
		gs.DF[i] = st.DF
	}
	return gs
}

// keepIDs filters hits to the documents the shard store holds, preserving
// order: what a monolith's ranking looks like from one shard.
func keepIDs(hits []Hit, shard *Store) []Hit {
	var out []Hit
	for _, h := range hits {
		if shard.snap.Load().getDoc(h.Doc.ID) != nil {
			out = append(out, h)
		}
	}
	return out
}

// TestGlobalCacheKeyedOnStats is the stats-aware cache contract. One shard
// store answers the same (query, k) under the statistics of two different
// corpora: each answer is its own cache entry, bit-identical to the
// uncached path and to SearchTextExhaustive on the monolith whose figures
// it was scored under; a repeat is a hit that neither searches nor
// allocates; any write invalidates; and the local SearchText entry for the
// same query is a third, separate entry.
func TestGlobalCacheKeyedOnStats(t *testing.T) {
	open := func(cacheSize int, reg *telemetry.Registry) *Store {
		s, err := Open(Options{ConceptDim: 8, Seed: 3, QueryCacheSize: cacheSize, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	reg := telemetry.NewRegistry()
	shard, uncached := open(0, reg), open(-1, nil)
	monoA, monoB := open(-1, nil), open(-1, nil)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 120; i++ {
		d := shadowDoc(r, fmt.Sprintf("d%03d", i), int64(i))
		stores := []*Store{monoA, monoB}
		if i%2 == 0 {
			stores = append(stores, shard, uncached)
		}
		for _, s := range stores {
			if err := s.Put(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Corpus B also holds documents of some other shard, shifting total and
	// both frequencies.
	for i := 0; i < 40; i++ {
		if err := monoB.Put(doc(fmt.Sprintf("x%03d", i), "gold", "gold gold ring", int64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}

	const q, k = "gold ring gold", 200 // k covers every match, so filtering the monolith's ranking is exact
	gsA, gsB := statsOf(monoA, "gold", "ring"), statsOf(monoB, "gold", "ring")
	hits, misses := reg.Counter("docstore.cache.hits"), reg.Counter("docstore.cache.misses")

	gotA := shard.SearchTextGlobal(q, k, gsA)
	gotB := shard.SearchTextGlobal(q, k, gsB)
	if len(gotA) == 0 || shard.cache.len() != 2 || misses.Value() != 2 {
		t.Fatalf("two statistics, one query: %d hits, %d entries, %d misses; want >0, 2, 2", len(gotA), shard.cache.len(), misses.Value())
	}
	if gotA[0].Score == gotB[0].Score {
		t.Fatalf("different statistics scored alike (%v): the test corpora do not separate the keys", gotA[0].Score)
	}
	for _, c := range []struct {
		name string
		gs   *GlobalStats
		mono *Store
		got  []Hit
	}{{"A", gsA, monoA, gotA}, {"B", gsB, monoB, gotB}} {
		if want := uncached.SearchTextGlobal(q, k, c.gs); !hitsEqual(c.got, want) {
			t.Fatalf("stats %s: cached path diverged from uncached:\n got  %v\n want %v", c.name, hitIDs(c.got), hitIDs(want))
		}
		if want := keepIDs(c.mono.SearchTextExhaustive(q, k), shard); !hitsEqual(c.got, want) {
			t.Fatalf("stats %s: diverged from the monolith scored under them:\n got  %v\n want %v", c.name, hitIDs(c.got), hitIDs(want))
		}
	}

	// A repeat is a hit: no search, no allocation, the same shared slice.
	searches := shard.Stats().Searches
	again := shard.SearchTextGlobal(q, k, gsA)
	if hits.Value() != 1 || shard.Stats().Searches != searches || &again[0] != &gotA[0] {
		t.Fatalf("repeat under stats A: hits=%d searches %d -> %d", hits.Value(), searches, shard.Stats().Searches)
	}
	if n := testing.AllocsPerRun(100, func() { shard.SearchTextGlobal(q, k, gsB) }); n != 0 && !raceEnabled {
		t.Fatalf("global cache hit allocates %v times", n)
	}

	// The local ask for the same query has its own entry and its own scores.
	local := shard.SearchText(q, k)
	if shard.cache.len() != 3 || shard.Stats().Searches != searches+1 {
		t.Fatalf("local ask collided with a global entry: %d entries, searches %d -> %d", shard.cache.len(), searches, shard.Stats().Searches)
	}
	if local[0].Score == gotA[0].Score || !hitsEqual(shard.SearchTextGlobal(q, k, gsA), gotA) || !hitsEqual(shard.SearchText(q, k), local) {
		t.Fatal("local and global entries for one query are not independent")
	}
	if shard.Stats().Searches != searches+1 {
		t.Fatal("repeats after the local ask re-executed")
	}

	// Any write bumps the epoch: the next global ask misses and sees it.
	if err := shard.Put(doc("d000", "gold ring", "gold ring", 500, nil)); err != nil {
		t.Fatal(err)
	}
	if post := shard.SearchTextGlobal(q, k, gsA); shard.Stats().Searches != searches+2 || hitsEqual(post, gotA) {
		t.Fatal("Put did not invalidate the global entry")
	}
	if err := shard.Delete("d000"); err != nil {
		t.Fatal(err)
	}
	post := shard.SearchTextGlobal(q, k, gsA)
	if shard.Stats().Searches != searches+3 || len(keepIDs(post, shard)) != len(post) {
		t.Fatalf("Delete did not invalidate the global entry: %v", hitIDs(post))
	}
}

// TestSearchTextAssumingReportsSearchedEpoch: the epoch returned with the
// hits is the snapshot's own, on the miss and on the hit.
func TestSearchTextAssumingReportsSearchedEpoch(t *testing.T) {
	s := memStore(t)
	defer s.Close()
	if err := s.Put(doc("d1", "gold ring", "gold filigree ring", 1, nil)); err != nil {
		t.Fatal(err)
	}
	gs := statsOf(s, "gold")
	for _, pass := range []string{"miss", "hit"} {
		if _, epoch, ok := s.SearchTextAssuming("gold", 3, gs); epoch != s.Epoch() || !ok {
			t.Fatalf("%s: reported epoch %d, store at %d", pass, epoch, s.Epoch())
		}
	}
}

// assumedOf is statsOf with the store's own figures named as the assumption:
// what a router that summed only this store would send it.
func assumedOf(s *Store, terms ...string) *GlobalStats {
	gs := statsOf(s, terms...)
	total, _, stats := s.TermStats(terms)
	gs.Assumed = &Assumed{Docs: total, DF: make([]uint64, len(terms)), MaxRatio: make([]float64, len(terms))}
	for i, st := range stats {
		gs.Assumed.DF[i], gs.Assumed.MaxRatio[i] = st.DF, st.MaxRatio
	}
	return gs
}

// TestSearchTextAssumingConfirmsOrRefuses: an assumption the snapshot
// confirms is answered exactly as the unconditional ask; a hit under it is
// the confirmation already made and searches nothing; a document count or a
// frequency off by one, a ratio assumed too low, or arrays not parallel to
// the terms are refused, at the snapshot's epoch, without searching or
// caching; a ratio assumed too high is only a looser bound; and a write
// that moves the figures turns the confirmed assumption into a refused one,
// on the overlay as after a freeze.
func TestSearchTextAssumingConfirmsOrRefuses(t *testing.T) {
	s := memStore(t)
	defer s.Close()
	for i := 0; i < 6; i++ {
		if err := s.Put(doc(fmt.Sprintf("d%d", i), "gold ring", "byzantine gold ring", int64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	const q, k = "gold ring", 4
	want := s.SearchTextGlobal(q, k, statsOf(s, "gold", "ring"))
	searches, entries := s.Stats().Searches, s.cache.len()
	ask := func(label string, gs *GlobalStats, wantOK bool, wantSearches uint64) {
		t.Helper()
		hits, epoch, ok := s.SearchTextAssuming(q, k, gs)
		if ok != wantOK || epoch != s.Epoch() || (ok && !hitsEqual(hits, want)) || (!ok && hits != nil) {
			t.Fatalf("%s: ok=%v epoch=%d (store at %d) hits=%v", label, ok, epoch, s.Epoch(), hitIDs(hits))
		}
		if got := s.Stats().Searches - searches; got != wantSearches {
			t.Fatalf("%s: %d searches so far, want %d", label, got, wantSearches)
		}
	}
	good := assumedOf(s, "gold", "ring")
	ask("confirmed", good, true, 1)
	ask("confirmed again", good, true, 1)
	if got := s.cache.len(); got != entries+1 {
		t.Fatalf("cache grew by %d entries, want one keyed on the assumption", got-entries)
	}
	for label, spoil := range map[string]func(a *Assumed){
		"docs":        func(a *Assumed) { a.Docs++ },
		"df":          func(a *Assumed) { a.DF[1]-- },
		"ratio low":   func(a *Assumed) { a.MaxRatio[0] /= 2 },
		"ratio NaN":   func(a *Assumed) { a.MaxRatio[0] = math.NaN() },
		"short df":    func(a *Assumed) { a.DF = a.DF[:1] },
		"long ratios": func(a *Assumed) { a.MaxRatio = append(a.MaxRatio, 1) },
	} {
		bad := assumedOf(s, "gold", "ring")
		spoil(bad.Assumed)
		ask(label, bad, false, 1)
		ask(label+" again", bad, false, 1)
	}
	if got := s.cache.len(); got != entries+1 {
		t.Fatalf("refusals left %d cache entries", got-entries-1)
	}
	loose := assumedOf(s, "gold", "ring")
	loose.Assumed.MaxRatio[1] *= 2
	ask("ratio high", loose, true, 2)

	if err := s.Put(doc("d9", "ring", "one more ring", 9, nil)); err != nil {
		t.Fatal(err)
	}
	searches = s.Stats().Searches
	ask("after a write", good, false, 0)
	s.mu.Lock()
	s.freezeLocked(s.snap.Load(), s.snap.Load().ov)
	s.mu.Unlock()
	ask("after the freeze", good, false, 0)
	good.Assumed = nil
	want = s.SearchTextGlobal(q, k, good) // the same sums, unconditionally
	searches = s.Stats().Searches
	good.Assumed = assumedOf(s, "gold", "ring").Assumed
	ask("corrected", good, true, 1)
}

// TestGlobalStatsShortDF: statistics whose DF is shorter than Terms arrive
// off the wire. The missing frequencies read as 0 — in scoring and in the
// cache key alike — instead of indexing out of range.
func TestGlobalStatsShortDF(t *testing.T) {
	s := memStore(t)
	defer s.Close()
	for i := 0; i < 6; i++ {
		if err := s.Put(doc(fmt.Sprintf("d%d", i), "gold ring", "byzantine gold ring", int64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	short := &GlobalStats{TotalDocs: 10, Terms: []string{"gold", "ring"}, DF: []uint64{1}}
	padded := &GlobalStats{TotalDocs: 10, Terms: []string{"gold", "ring"}, DF: []uint64{1, 0}}
	got := s.SearchTextGlobal("gold ring", 5, short)
	if len(got) == 0 || !hitsEqual(got, s.SearchTextGlobal("gold ring", 5, padded)) {
		t.Fatalf("short DF scored %v", hitIDs(got))
	}
	if s.cache.len() != 1 {
		t.Fatalf("short and zero-padded DF made %d entries, want the same one", s.cache.len())
	}
}

// TestGlobalKeyBoundaries: every string in a global key carries its length,
// so statistics that concatenate alike still encode apart, and no global
// key equals the local key of any query.
func TestGlobalKeyBoundaries(t *testing.T) {
	key := func(q string, k int, gs *GlobalStats) string { return string(appendTextKey(nil, q, k, gs)) }
	gs := func(total uint64, terms []string, df ...uint64) *GlobalStats {
		return &GlobalStats{TotalDocs: total, Terms: terms, DF: df}
	}
	keys := map[string]string{}
	for name, k := range map[string]string{
		"one term ab":        key("ab", 5, gs(9, []string{"ab"}, 1)),
		"terms a, b":         key("ab", 5, gs(9, []string{"a", "b"}, 1)),
		"terms a, b, df 1 0": key("ab", 5, gs(9, []string{"a", "b"}, 1, 1)),
		"terms a, b, total":  key("ab", 5, gs(10, []string{"a", "b"}, 1)),
		"term a, df 1":       key("a", 5, gs(9, []string{"a"}, 1)),
		"term a\\x01, df 0":  key("a", 5, gs(9, []string{"a\x01"})),
		"query a b, k 5":     key("a b", 5, gs(9, nil)),
		"query a, k 5 (b)":   key("a", 5, gs(9, []string{"b"})),
		"k 50":               key("ab", 50, gs(9, []string{"ab"}, 1)),
		"no terms":           key("ab", 5, gs(9, nil)),
		"local":              key("ab", 5, nil),
		"local, g query":     key("g\x02ab", 5, nil),
	} {
		if other, dup := keys[k]; dup {
			t.Fatalf("%q and %q encode to the same key %q", name, other, k)
		}
		keys[k] = name
	}
}

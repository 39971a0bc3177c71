package docstore

import (
	"fmt"
	"testing"

	"repro/internal/feature"
	"repro/internal/telemetry"
)

// TestCacheInvalidationOnWrite pins the generation-tagging contract: a
// repeated query at the same epoch is served from the cache (no
// re-execution, visible as an unchanged Searches counter), and any
// Put/Delete bumps the epoch so the next repeat misses and re-executes.
func TestCacheInvalidationOnWrite(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Open(Options{ConceptDim: 8, Seed: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put(doc(fmt.Sprintf("d%d", i), "Gold Ring", "byzantine gold ring", int64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	hits := reg.Counter("docstore.cache.hits")
	misses := reg.Counter("docstore.cache.misses")

	first := s.SearchText("gold ring", 3)
	if got := s.Stats().Searches; got != 1 {
		t.Fatalf("searches after first query = %d, want 1", got)
	}
	if misses.Value() != 1 || hits.Value() != 0 {
		t.Fatalf("counters after first query: hits=%d misses=%d", hits.Value(), misses.Value())
	}

	second := s.SearchText("gold ring", 3)
	if got := s.Stats().Searches; got != 1 {
		t.Fatalf("cache hit re-executed: searches = %d, want 1", got)
	}
	if hits.Value() != 1 {
		t.Fatalf("cache hits = %d, want 1", hits.Value())
	}
	if !hitsEqual(first, second) {
		t.Fatal("cached result differs from the computed one")
	}

	// Put bumps the epoch: the same query re-executes and sees the new doc.
	// Shorter than the others, so it outranks them and must appear in the
	// re-executed top-3.
	if err := s.Put(doc("d9", "Gold Ring", "gold ring", 50, nil)); err != nil {
		t.Fatal(err)
	}
	third := s.SearchText("gold ring", 3)
	if got := s.Stats().Searches; got != 2 {
		t.Fatalf("post-put repeat did not re-execute: searches = %d, want 2", got)
	}
	if misses.Value() != 2 {
		t.Fatalf("cache misses = %d, want 2", misses.Value())
	}
	found := false
	for _, h := range third {
		if h.Doc.ID == "d9" {
			found = true
		}
	}
	if !found {
		t.Fatal("re-executed query does not see the new document")
	}

	// Delete also invalidates.
	if err := s.Delete("d9"); err != nil {
		t.Fatal(err)
	}
	s.SearchText("gold ring", 3)
	if got := s.Stats().Searches; got != 3 {
		t.Fatalf("post-delete repeat did not re-execute: searches = %d, want 3", got)
	}
	if misses.Value() != 3 {
		t.Fatalf("cache misses = %d, want 3", misses.Value())
	}
}

// TestCacheHybridAndOwnership: SearchHybrid is not cached — a repeat is one
// more search, with bit-identical hits sharing the same snapshot-owned
// documents — while a text ask next to it is still served from the cache,
// and mutating a Get copy must not corrupt the cache or the store.
func TestCacheHybridAndOwnership(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Open(Options{ConceptDim: 8, Seed: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	cv := feature.Vector{1, 0, 0.5, 0, 0, 0, 0, 0}
	for i := 0; i < 4; i++ {
		if err := s.Put(doc(fmt.Sprintf("h%d", i), "Gold Ring", "byzantine gold ring", int64(i), cv)); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := reg.Counter("docstore.cache.hits"), reg.Counter("docstore.cache.misses")
	first := s.SearchHybrid("gold ring", cv, 0.5, 3)
	second := s.SearchHybrid("gold ring", cv, 0.5, 3)
	if got := s.Stats().Searches; got != 2 {
		t.Fatalf("searches after two hybrid asks = %d, want 2", got)
	}
	if hits.Value() != 0 || misses.Value() != 0 {
		t.Fatalf("hybrid asks reached the cache: hits=%d misses=%d", hits.Value(), misses.Value())
	}
	requireSameBits(t, "repeated hybrid ask", second, first)
	for i := range first {
		if second[i].Doc != first[i].Doc {
			t.Fatalf("hit %d: a repeated hybrid ask did not share the snapshot-owned document", i)
		}
	}

	// Text asks are still fronted by the cache.
	s.SearchText("gold ring", 3)
	s.SearchText("gold ring", 3)
	if got := s.Stats().Searches; got != 3 || hits.Value() != 1 {
		t.Fatalf("repeated text ask: searches = %d, cache hits = %d, want 3 and 1", got, hits.Value())
	}

	// Results are shared and read-only (see Hit): a caller who wants to
	// mutate must clone — Get hands out an independent copy.
	back, err := s.Get(second[0].Doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	back.Title = "mutated"
	if fresh := s.SearchText("gold ring", 3); fresh[0].Doc.Title == "mutated" {
		t.Fatal("mutating a Get copy leaked into cached results")
	}
	if fresh := s.SearchHybrid("gold ring", cv, 0.5, 3); fresh[0].Doc.Title == "mutated" {
		t.Fatal("mutating a Get copy leaked into the store")
	}
}

// TestCacheBounded: the LRU honors its capacity.
func TestCacheBounded(t *testing.T) {
	s, err := Open(Options{ConceptDim: 8, Seed: 1, QueryCacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(doc("d1", "Gold Ring", "byzantine gold ring", 1, nil)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		s.SearchText(fmt.Sprintf("gold query %d", i), 3)
	}
	if got := s.cache.len(); got > 4 {
		t.Fatalf("cache holds %d entries, cap 4", got)
	}
	// The most recent key is still resident.
	before := s.Stats().Searches
	s.SearchText("gold query 11", 3)
	if got := s.Stats().Searches; got != before {
		t.Fatalf("most recent entry evicted: searches %d -> %d", before, got)
	}
}

// TestCacheDisabled: negative QueryCacheSize turns caching off entirely;
// every repeat re-executes.
func TestCacheDisabled(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Open(Options{ConceptDim: 8, Seed: 1, QueryCacheSize: -1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(doc("d1", "Gold Ring", "byzantine gold ring", 1, nil)); err != nil {
		t.Fatal(err)
	}
	s.SearchText("gold", 3)
	s.SearchText("gold", 3)
	if got := s.Stats().Searches; got != 2 {
		t.Fatalf("disabled cache still served a hit: searches = %d, want 2", got)
	}
	if reg.Counter("docstore.cache.hits").Value() != 0 {
		t.Fatal("disabled cache recorded hits")
	}
}

// TestTokenMemo: repeated query strings reuse the memoized token slice (the
// memo counts hits through telemetry); distinct strings tokenize fresh.
func TestTokenMemo(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Cache disabled so repeats reach tokenization.
	s, err := Open(Options{ConceptDim: 8, Seed: 1, QueryCacheSize: -1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(doc("d1", "Gold Ring", "byzantine gold ring", 1, nil)); err != nil {
		t.Fatal(err)
	}
	memoHits := reg.Counter("docstore.tokens.memo.hits")
	s.SearchText("byzantine gold", 3)
	if memoHits.Value() != 0 {
		t.Fatal("first tokenization counted as a memo hit")
	}
	s.SearchText("byzantine gold", 3)
	s.SearchText("byzantine gold", 3)
	if got := memoHits.Value(); got != 2 {
		t.Fatalf("memo hits = %d, want 2", got)
	}
	s.SearchText("different query", 3)
	if got := memoHits.Value(); got != 2 {
		t.Fatalf("distinct query hit the memo: %d", got)
	}
}

// TestCacheKeepsOneEpoch: the first entry put at a later epoch drops every
// entry of the earlier one, which no lookup can hit again and whose hits
// would keep alive the indexes they were found in, instead of leaving them
// to the LRU; an answer computed on a replaced snapshot is not stored.
func TestCacheKeepsOneEpoch(t *testing.T) {
	s := memStore(t)
	put := func(id string) {
		if err := s.Put(doc(id, "Gold Ring", "byzantine gold ring", 1, nil)); err != nil {
			t.Fatal(err)
		}
	}
	put("d1")
	for i := 0; i < 3; i++ {
		s.SearchText(fmt.Sprintf("gold query %d", i), 3)
	}
	if got := s.cache.len(); got != 3 {
		t.Fatalf("%d entries after three misses, want 3", got)
	}
	put("d2")
	s.SearchText("gold query 0", 3)
	if got := s.cache.len(); got != 1 {
		t.Fatalf("%d entries after a write and one miss, want 1", got)
	}
	s.cache.put([]byte("late"), s.Epoch()-1, nil)
	if got := s.cache.len(); got != 1 {
		t.Fatalf("an answer from a replaced snapshot was stored: %d entries", got)
	}
}

// Fixture for the postings analyzer. Loaded as package path
// internal/docstore and type-checked like the real tree.
package docstore

import "sync"

type ovPost struct {
	id string
	tf int
}

type overlay struct {
	termPost map[string][]ovPost
}

type Store struct {
	ov *overlay
}

type Hit struct{}

var scratchPool sync.Pool

// SearchText is a root: everything it (transitively) calls is on the
// query path and must stay off the postings maps. It releases its
// scratch through sync.Pool.Put — under the old name-based call graph
// that resolved to Store.Put and needed a hard-coded barrier list to
// keep the write side out; the typed graph tells the two methods apart
// with no special casing.
func (s *Store) SearchText(q string, k int) []Hit {
	s.rank(q)
	scratchPool.Put(&q)
	return nil
}

// rank is reachable from SearchText only through the call graph — the
// analyzer must chase the resolved method, not just the Search* decls
// themselves.
func (s *Store) rank(q string) float64 {
	total := 0.0
	for _, e := range s.ov.termPost[q] { // want "Store.rank (reachable from Store.SearchText) ranges over termPost"
		total += float64(e.tf)
	}
	for t, p := range s.ov.termPost { // want "ranges over termPost"
		_, _ = t, p
	}
	return total
}

// A local variable that happens to be named termPost is fine: matching
// is by resolved field object, not by name.
func (s *Store) SearchLocal(q string) int {
	termPost := map[string]int{q: 1}
	n := 0
	for k := range termPost {
		n += len(k)
	}
	return n
}

// overlayPostings is the sanctioned accessor shape: ranging over a call
// result is fine — the accessor returns a sorted COW slice, not a map.
func (s *Store) overlayPostings(t string) []int { return nil }

func (s *Store) SearchHybrid(q string) []Hit {
	for _, tf := range s.overlayPostings(q) {
		_ = tf
	}
	return nil
}

// Put is a write entry point ranging the postings map legally — and the
// regression proof that the barrier list stays gone: SearchText's
// scratch release is spelled .Put, yet nothing reachable from Search*
// lands here.
func (s *Store) Put(d *Hit) error {
	for t, p := range s.ov.termPost {
		_, _ = t, p
	}
	return nil
}

// removeDoc is a writer: it is not reachable from any Search* root, so
// its map iteration is legal (the fold family builds this map).
func (s *Store) removeDoc(id string) {
	for t := range s.ov.termPost {
		_ = t
	}
}

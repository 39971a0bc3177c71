// Fixture for the hotalloc analyzer. Loaded as package path
// internal/docstore and type-checked like the real tree.
package docstore

import "sync"

type Hit struct{ id string }

// searchScratch mirrors the pooled scratch: append may grow its slices
// freely, the growth is amortized into the pool.
type searchScratch struct {
	heap   []Hit
	keyBuf []byte
}

var scratchPool = sync.Pool{New: func() any { return &searchScratch{} }}

type Store struct {
	cache map[string][]Hit
}

// SearchText is a root: everything reachable from it is hot.
func (s *Store) SearchText(q string, k int) []Hit {
	sc := scratchPool.Get().(*searchScratch)
	sc.keyBuf = appendKey(sc.keyBuf[:0], q)
	if hits, ok := s.cache[string(sc.keyBuf)]; ok { // compiler-elided map-read key: fine
		return hits
	}
	hits := s.scoreAll(q, sc)
	scratchPool.Put(sc)
	return hits
}

// appendKey appends to its parameter: the caller owns the backing array
// (pooled), so growth is amortized — allowed.
func appendKey(dst []byte, q string) []byte {
	return append(dst, q...)
}

// scoreAll is reachable from SearchText only through the call graph:
// every allocating construct below is a finding.
func (s *Store) scoreAll(q string, sc *searchScratch) []Hit {
	ids := make([]string, 0, 8) // want "allocates with make"
	_ = ids
	extra := new(Hit) // want "allocates with new"
	_ = extra
	seed := []Hit{{id: q}} // want "allocates a slice literal"
	_ = seed
	idx := map[string]int{} // want "allocates a map literal"
	_ = idx
	h := &Hit{id: q} // want "allocates with &composite"
	_ = h
	key := string(sc.keyBuf) // want "converts"
	_ = key
	raw := []byte(q) // want "converts"
	_ = raw
	var out []Hit
	out = append(out, Hit{id: q})         // want "appends to a slice"
	sc.heap = append(sc.heap, Hit{id: q}) // pooled scratch: allowed
	cur := cursor{pos: 1}                 // value composite literal: frame-allocated, fine
	_ = cur
	return out
}

type cursor struct{ pos int }

// The documented cold-path allocation carries a reasoned allow.
func (s *Store) SearchTextExhaustive(q string) []Hit {
	hits := make([]Hit, 0, 4) //lint:allow hotalloc fixture: the one documented cold-query allocation
	return hits
}

// SearchTextGlobal is a root too: the scatter hit path builds its cache
// key from router-supplied statistics, and must do so in the scratch.
func (s *Store) SearchTextGlobal(q string, terms []string) []Hit {
	sc := scratchPool.Get().(*searchScratch)
	sc.keyBuf = appendKey(sc.keyBuf[:0], q)
	hits := s.cache[string(s.statsKey(sc, terms))]
	scratchPool.Put(sc)
	return hits
}

// statsKey is reachable only from SearchTextGlobal.
func (s *Store) statsKey(sc *searchScratch, terms []string) []byte {
	joined := []byte{} // want "allocates a slice literal"
	for _, t := range terms {
		joined = append(joined, t...)               // want "appends to a slice"
		sc.keyBuf = append(sc.keyBuf, byte(len(t))) // pooled scratch: allowed
		sc.keyBuf = append(sc.keyBuf, t...)
	}
	_ = joined
	return sc.keyBuf
}

// SearchTextAssuming is the root a shard server enters by: checking what the
// router assumed of this store must not build the figures it compares.
func (s *Store) SearchTextAssuming(q string, assumed []uint64) ([]Hit, bool) {
	now := make([]uint64, len(assumed)) // want "allocates with make"
	for i := range now {
		if now[i] != assumed[i] {
			return nil, false
		}
	}
	return s.SearchTextGlobal(q, nil), true
}

// SearchHybrid is a root: the blend files one pool in the scratch and
// allocates only its result, not a map over either pool.
func (s *Store) SearchHybrid(q string, k int) []Hit {
	sc := scratchPool.Get().(*searchScratch)
	hits := s.blend(q, k, sc)
	scratchPool.Put(sc)
	return hits
}

// blend is reachable only from SearchHybrid.
func (s *Store) blend(q string, k int, sc *searchScratch) []Hit {
	byID := make(map[string]Hit, k) // want "allocates with make"
	byID[q] = Hit{id: q}
	sc.heap = append(sc.heap[:0], byID[q]) // pooled scratch: allowed
	out := make([]Hit, 0, k)               //lint:allow hotalloc fixture: the result slice
	return append(out, sc.heap...)         //lint:allow hotalloc fixture: appends into the sized result; never grows
}

// Writers may allocate freely: Put is not reachable from the Search
// roots, so none of this fires.
func (s *Store) Put(h Hit) {
	if s.cache == nil {
		s.cache = make(map[string][]Hit)
	}
	s.cache[h.id] = append(s.cache[h.id], h)
}

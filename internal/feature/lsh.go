package feature

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"sync"
)

// LSH is a random-hyperplane locality-sensitive hash index for cosine
// similarity over dense vectors. feedsys's concept matcher files standing
// subscriptions' concept predicates in one, and experiment E17 sweeps its
// shape for recall against an exact scan.
//
// Design: L independent tables, each hashing a vector to a b-bit signature
// from b random hyperplanes. Candidates are the union of same-bucket entries
// across tables; the caller re-scores candidates exactly.
type LSH struct {
	mu     sync.RWMutex
	planes [][]Vector // [table][bit] hyperplane
	tables []map[uint64][]string
	items  map[string]Vector
}

// NewLSH builds an index for dim-dimensional vectors with the given number
// of tables and bits per signature. More tables raise recall; more bits
// raise precision.
func NewLSH(seed int64, dim, tables, bits int) *LSH {
	if tables <= 0 {
		tables = 4
	}
	if bits <= 0 || bits > 63 {
		bits = 12
	}
	r := rand.New(rand.NewSource(seed))
	l := &LSH{
		planes: make([][]Vector, tables),
		tables: make([]map[uint64][]string, tables),
		items:  make(map[string]Vector),
	}
	for t := 0; t < tables; t++ {
		l.planes[t] = make([]Vector, bits)
		for b := 0; b < bits; b++ {
			p := make(Vector, dim)
			for i := range p {
				p[i] = r.NormFloat64()
			}
			l.planes[t][b] = p
		}
		l.tables[t] = make(map[uint64][]string)
	}
	return l
}

// Len returns the number of indexed items.
func (l *LSH) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.items)
}

func (l *LSH) signature(t int, v Vector) uint64 {
	var sig uint64
	for b, plane := range l.planes[t] {
		if v.Dot(plane) >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// Put indexes a copy of v under id, replacing any previous vector for id.
func (l *LSH) Put(id string, v Vector) {
	cp := v.Clone()
	sigs := l.signatures(cp)
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.items[id]; ok {
		l.removeLocked(id)
	}
	l.items[id] = cp
	for t, sig := range sigs {
		l.tables[t][sig] = append(l.tables[t][sig], id)
	}
}

// Delete removes id from the index; it reports whether it was present.
func (l *LSH) Delete(id string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.items[id]; !ok {
		return false
	}
	l.removeLocked(id)
	return true
}

func (l *LSH) removeLocked(id string) {
	v := l.items[id]
	delete(l.items, id)
	for t := range l.tables {
		sig := l.signature(t, v)
		bucket := l.tables[t][sig]
		for i, b := range bucket {
			if b == id {
				bucket[i] = bucket[len(bucket)-1]
				l.tables[t][sig] = bucket[:len(bucket)-1]
				break
			}
		}
		if len(l.tables[t][sig]) == 0 {
			delete(l.tables[t], sig)
		}
	}
}

// signatures returns v's per-table bucket signatures. Hyperplanes are
// immutable after construction, so this takes no lock.
func (l *LSH) signatures(v Vector) []uint64 {
	sigs := make([]uint64, len(l.planes))
	for t := range l.planes {
		sigs[t] = l.signature(t, v)
	}
	return sigs
}

// Candidate is a scored index hit.
type Candidate struct {
	ID    string
	Score float64
}

// lshScratch is the pooled per-query state of Query and Scan: the set of ids
// already scored and the selection heap keep their storage across queries.
type lshScratch struct {
	seen map[string]struct{}
	heap []Candidate
}

var lshPool = sync.Pool{New: func() any { return &lshScratch{seen: map[string]struct{}{}} }}

// Query returns up to k ids most cosine-similar to q among LSH candidates,
// exactly re-scored and sorted descending. If the candidate set is smaller
// than k the result is shorter; callers needing guaranteed recall can fall
// back to Scan.
func (l *LSH) Query(q Vector, k int) []Candidate {
	sc := lshPool.Get().(*lshScratch)
	clear(sc.seen)
	top := candTop{k: k, heap: sc.heap[:0]}
	qn := q.Norm()
	l.mu.RLock()
	for t := range l.tables {
		for _, id := range l.tables[t][l.signature(t, q)] {
			if _, dup := sc.seen[id]; dup {
				continue
			}
			sc.seen[id] = struct{}{}
			v := l.items[id]
			top.push(Candidate{ID: id, Score: CosineNorms(q, v, qn, v.Norm())})
		}
	}
	l.mu.RUnlock()
	return top.result(sc)
}

// Scan exactly scores every indexed vector against q — the ground-truth
// (and slow) path used for recall measurement and small stores.
func (l *LSH) Scan(q Vector, k int) []Candidate {
	sc := lshPool.Get().(*lshScratch)
	top := candTop{k: k, heap: sc.heap[:0]}
	qn := q.Norm()
	l.mu.RLock()
	for id, v := range l.items {
		top.push(Candidate{ID: id, Score: CosineNorms(q, v, qn, v.Norm())})
	}
	l.mu.RUnlock()
	return top.result(sc)
}

// candTop selects the best k candidates pushed, under the deterministic
// (score desc, ID asc) order, while they are scored: a k-sized min-heap keyed
// by "worst kept" instead of a slice of every candidate. Ids are unique, so
// the order is strict and the result is identical to sort-then-truncate.
// k < 0 keeps everything.
type candTop struct {
	k    int
	heap []Candidate
}

func (h *candTop) push(c Candidate) {
	switch {
	case h.k < 0:
		h.heap = append(h.heap, c)
	case len(h.heap) < h.k:
		h.heap = append(h.heap, c)
		siftUpCand(h.heap, len(h.heap)-1)
	case h.k > 0 && candWorse(h.heap[0], c):
		h.heap[0] = c
		siftDownCand(h.heap)
	}
}

// result returns the kept candidates, ranked, in a slice of their own, and
// hands the scratch back to the pool.
func (h *candTop) result(sc *lshScratch) []Candidate {
	sortCandidates(h.heap)
	out := append([]Candidate(nil), h.heap...)
	sc.heap = h.heap[:0]
	lshPool.Put(sc)
	return out
}

// candWorse reports whether a ranks strictly worse than b.
func candWorse(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

func siftUpCand(h []Candidate, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !candWorse(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDownCand(h []Candidate) {
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h) && candWorse(h[l], h[m]) {
			m = l
		}
		if r < len(h) && candWorse(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// sortCandidates ranks by score, ties by ID so results are deterministic
// across runs.
func sortCandidates(cands []Candidate) {
	slices.SortFunc(cands, func(a, b Candidate) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
}

package feature

import (
	"math/rand"
	"sort"
	"sync"
)

// LSH is a random-hyperplane locality-sensitive hash index for cosine
// similarity over dense vectors. It backs the docstore's vector index: an
// Agora node must answer "find objects similar to this image" without a full
// scan.
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
	l.Insert(id, cp, l.Signatures(cp))
}

// Insert is Put for a caller that already owns v and its Signatures: the
// index keeps v itself, which must never change again.
func (l *LSH) Insert(id string, v Vector, sigs []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.items[id]; ok {
		l.removeLocked(id)
	}
	l.items[id] = v
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

// Signatures returns q's per-table bucket signatures. Hyperplanes are
// immutable after construction, so this takes no lock; callers use it to
// precompute signatures for vectors held outside the index (see Extra).
func (l *LSH) Signatures(v Vector) []uint64 {
	sigs := make([]uint64, len(l.planes))
	for t := range l.planes {
		sigs[t] = l.signature(t, v)
	}
	return sigs
}

// Extra is a vector considered alongside the index without being inserted:
// it joins a table's candidate set exactly when its precomputed signature
// (from Signatures, against the same hyperplanes) matches the query bucket —
// the same membership rule an indexed vector would obey. The docstore's
// epoch-snapshot overlay uses this to query a frozen index plus a small
// unindexed delta with identical candidate semantics.
type Extra struct {
	ID   string
	Vec  Vector
	Sigs []uint64
}

// Clone returns an independent copy sharing only immutable state (the
// hyperplanes and the stored vectors, which are never mutated in place).
// Bucket slices and maps are deep-copied so Put/Delete on either side never
// touches the other.
func (l *LSH) Clone() *LSH {
	l.mu.RLock()
	defer l.mu.RUnlock()
	cp := &LSH{
		planes: l.planes,
		tables: make([]map[uint64][]string, len(l.tables)),
		items:  make(map[string]Vector, len(l.items)),
	}
	for t, tbl := range l.tables {
		nt := make(map[uint64][]string, len(tbl))
		for sig, bucket := range tbl {
			nt[sig] = append([]string(nil), bucket...)
		}
		cp.tables[t] = nt
	}
	for id, v := range l.items {
		cp.items[id] = v
	}
	return cp
}

// Candidate is a scored index hit.
type Candidate struct {
	ID    string
	Score float64
}

// Query returns up to k ids most cosine-similar to q among LSH candidates,
// exactly re-scored and sorted descending. If the candidate set is smaller
// than k the result is shorter; callers needing guaranteed recall can fall
// back to Scan.
func (l *LSH) Query(q Vector, k int) []Candidate {
	return l.QueryWith(q, k, nil, nil)
}

// QueryWith is Query extended for snapshot readers: extras join the bucket
// candidate sets by their precomputed signatures, and ids for which excluded
// returns true are dropped before top-k selection (so superseded index
// entries cannot crowd out live ones).
func (l *LSH) QueryWith(q Vector, k int, extras []Extra, excluded func(string) bool) []Candidate {
	l.mu.RLock()
	defer l.mu.RUnlock()
	seen := make(map[string]bool)
	var cands []Candidate
	for t := range l.tables {
		sig := l.signature(t, q)
		for _, id := range l.tables[t][sig] {
			if seen[id] || (excluded != nil && excluded(id)) {
				continue
			}
			seen[id] = true
			cands = append(cands, Candidate{ID: id, Score: Cosine(q, l.items[id])})
		}
		for i := range extras {
			e := &extras[i]
			if t >= len(e.Sigs) || e.Sigs[t] != sig || seen[e.ID] {
				continue
			}
			seen[e.ID] = true
			cands = append(cands, Candidate{ID: e.ID, Score: Cosine(q, e.Vec)})
		}
	}
	return topCandidates(cands, k)
}

// Scan exactly scores every indexed vector against q — the ground-truth
// (and slow) path used for recall measurement and small stores.
func (l *LSH) Scan(q Vector, k int) []Candidate {
	return l.ScanWith(q, k, nil, nil)
}

// ScanWith is Scan extended for snapshot readers; see QueryWith.
func (l *LSH) ScanWith(q Vector, k int, extras []Extra, excluded func(string) bool) []Candidate {
	l.mu.RLock()
	defer l.mu.RUnlock()
	cands := make([]Candidate, 0, len(l.items)+len(extras))
	for id, v := range l.items {
		if excluded != nil && excluded(id) {
			continue
		}
		cands = append(cands, Candidate{ID: id, Score: Cosine(q, v)})
	}
	for i := range extras {
		cands = append(cands, Candidate{ID: extras[i].ID, Score: Cosine(q, extras[i].Vec)})
	}
	return topCandidates(cands, k)
}

// topCandidates selects the best k candidates under the deterministic
// (score desc, ID asc) order. For bounded k it keeps a k-sized min-heap
// keyed by "worst kept" instead of sorting the whole candidate set; ids are
// unique, so the order is strict and the result is identical to
// sort-then-truncate.
func topCandidates(cands []Candidate, k int) []Candidate {
	if k == 0 {
		return cands[:0]
	}
	if k < 0 || len(cands) <= k {
		sortCandidates(cands)
		return cands
	}
	heap := make([]Candidate, 0, k)
	for _, c := range cands {
		if len(heap) < k {
			heap = append(heap, c)
			siftUpCand(heap, len(heap)-1)
		} else if candWorse(heap[0], c) {
			heap[0] = c
			siftDownCand(heap)
		}
	}
	sortCandidates(heap)
	return heap
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

func sortCandidates(cands []Candidate) {
	// Ties break by ID so results are deterministic across runs.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].ID < cands[j].ID
	})
}

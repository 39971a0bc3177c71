package feature

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
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

// Signatures returns v's per-table bucket signatures. Hyperplanes are
// immutable after construction, so this takes no lock; callers use it to
// precompute signatures for vectors held outside the index.
func (l *LSH) Signatures(v Vector) []uint64 {
	return l.AppendSignatures(make([]uint64, 0, len(l.planes)), v)
}

// AppendSignatures appends v's per-table signatures to dst.
func (l *LSH) AppendSignatures(dst []uint64, v Vector) []uint64 {
	for t := range l.planes {
		dst = append(dst, l.signature(t, v))
	}
	return dst
}

// Bucket returns the ids filed under sig in table t: the candidates that
// table contributes to a query whose signature there is sig. A caller that
// scores by its own document numbers (the docstore's frozen base) probes
// through this. The slice is the index's own and valid until the next Put,
// Insert or Delete.
func (l *LSH) Bucket(t int, sig uint64) []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tables[t][sig]
}

// BucketSizes sums the sizes of the buckets a query with these signatures
// reads: no probe finds more distinct ids.
func (l *LSH) BucketSizes(sigs []uint64) (n int) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for t, sig := range sigs {
		n += len(l.tables[t][sig])
	}
	return n
}

// Extra is a vector held outside the index with what a search needs beside
// it: its norm, and its signatures (from Signatures, against the same
// hyperplanes). It is a probe's candidate exactly when an indexed vector
// would be — when it Shares a bucket with the query. The docstore's overlay
// holds its documents' vectors this way, to search a frozen index plus a
// small unindexed delta with identical candidate semantics.
type Extra struct {
	ID   string
	Vec  Vector
	Norm float64 // Vec.Norm()
	Sigs []uint64
}

// Shares reports whether e falls in the same bucket as a vector with
// signatures sigs, in any table.
func (e *Extra) Shares(sigs []uint64) bool {
	for t, sig := range e.Sigs {
		if t < len(sigs) && sigs[t] == sig {
			return true
		}
	}
	return false
}

// Filled returns an index over l's hyperplanes — which are immutable, so a
// vector has the same signatures in both and a query's buckets in the two,
// taken together, are its bucket in one index holding both sets — of the
// vectors vecs[i] under ids[i], each filed under sigs[i*tables:(i+1)*tables]
// (its Signatures); an empty vector is no item. The index keeps the vectors
// themselves, and each table's buckets are carved from one array and capped,
// so no later Insert touches a neighbouring bucket. The docstore builds one
// per segment this way, from signatures it carries along.
func (l *LSH) Filled(ids []string, vecs []Vector, sigs []uint64) *LSH {
	cp := &LSH{planes: l.planes, tables: make([]map[uint64][]string, len(l.tables)), items: make(map[string]Vector, len(ids))}
	for i, id := range ids {
		if len(vecs[i]) > 0 {
			cp.items[id] = vecs[i]
		}
	}
	sizes := map[uint64]int{}
	for t := range cp.tables {
		clear(sizes)
		for i := range ids {
			if len(vecs[i]) > 0 {
				sizes[sigs[i*len(l.tables)+t]]++
			}
		}
		tbl := make(map[uint64][]string, len(sizes))
		arena := make([]string, len(cp.items)) // a table files every item once
		for sig, n := range sizes {
			tbl[sig], arena = arena[:0:n], arena[n:]
		}
		for i, id := range ids {
			if sig := sigs[i*len(l.tables)+t]; len(vecs[i]) > 0 {
				tbl[sig] = append(tbl[sig], id)
			}
		}
		cp.tables[t] = tbl
	}
	return cp
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

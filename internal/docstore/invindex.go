package docstore

// invIndex is the mutable, map-based inverted text index the write path
// maintains. It is rebuilt from the primary map on recovery, so it needs no
// persistence of its own. Queries never touch it: at every epoch freeze it
// is compiled into the immutable block-compressed compiledIndex
// (compiled.go), which is what the read path walks.
//
// Postings are keyed by a master-assigned document number, not by the
// document ID: the index is the largest live structure on a serving node,
// and a map[uint32]uint32 entry costs a third of a map[string]int one (no
// 16-byte string header per posting for the collector to mark). Numbers
// are dense — a removed document's number goes on a free list and the next
// add reuses it — so docLen stays the size of the live set's high-water
// mark.
type invIndex struct {
	postings map[string]map[uint32]uint32 // term -> document number -> tf
	num      map[string]uint32            // live docID -> document number
	docLen   []uint32                     // document number -> token count
	free     []uint32                     // released numbers, reused LIFO
}

func newInvIndex() *invIndex {
	return &invIndex{
		postings: make(map[string]map[uint32]uint32),
		num:      make(map[string]uint32),
	}
}

// insert registers id (which must not be live) with its token count and
// returns the document number its postings go under.
func (ix *invIndex) insert(id string, docLen int) uint32 {
	var n uint32
	if last := len(ix.free) - 1; last >= 0 {
		n = ix.free[last]
		ix.free = ix.free[:last]
		ix.docLen[n] = uint32(docLen)
	} else {
		n = uint32(len(ix.docLen))
		ix.docLen = append(ix.docLen, uint32(docLen))
	}
	ix.num[id] = n
	return n
}

// postingsOf returns term's posting map, creating it on first use.
func (ix *invIndex) postingsOf(term string) map[uint32]uint32 {
	p, ok := ix.postings[term]
	if !ok {
		p = make(map[uint32]uint32)
		ix.postings[term] = p
	}
	return p
}

func (ix *invIndex) add(id string, tokens []string) {
	ix.removeDoc(id)
	n := ix.insert(id, len(tokens))
	for _, t := range tokens {
		ix.postingsOf(t)[n]++
	}
}

func (ix *invIndex) removeDoc(id string) {
	n, ok := ix.num[id]
	if !ok {
		return
	}
	delete(ix.num, id)
	ix.free = append(ix.free, n)
	for t, p := range ix.postings {
		if _, ok := p[n]; ok {
			delete(p, n)
			if len(p) == 0 {
				delete(ix.postings, t)
			}
		}
	}
}

// scored is a ranked text hit. ord is the document's ordinal in the
// compiled base index, or -1 for overlay documents — it lets the hit
// assembler resolve the Document without a map lookup.
type scored struct {
	id    string
	ord   int32
	score float64
}

// scoredBetter is the deterministic (score desc, id asc) ranking order; ids
// are unique so it is a strict total order, which makes heap selection
// provably identical to sort-then-truncate — and makes the selected top-k
// set independent of the order candidates arrive in.
func scoredBetter(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// termCount returns the number of distinct indexed terms.
func (ix *invIndex) termCount() int { return len(ix.postings) }

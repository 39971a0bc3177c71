package docstore

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// compiledIndex is a segment's text index and document table, the only
// representation of postings. It is built in order by addDoc/appendTerm — for
// a commit window from its batch alone, at a tier merge, a compaction or Open
// as the merge of several indexes (mergeIndex, all of them), at Open from the
// snapshot file's bytes — and is immutable afterwards: its documents get
// dense ordinals in ascending-ID order, every term's postings become
// delta+varint-compressed blocks (codec.go), and each block carries the
// maximum (1+ln tf)/norm ratio of its postings so the block-max search can
// skip it wholesale when even that optimistic bound cannot reach the
// current top-k threshold. The zero value is a valid empty index.
type compiledIndex struct {
	ids     []string    // ordinal -> document ID (ascending, dense)
	docs    []*Document // ordinal -> document (shared across epochs, never mutated)
	docLens []uint32    // ordinal -> token count
	norms   []float64   // ordinal -> sqrt(docLen+1), the score denominator
	minNorm float64     // the least of norms, dead documents included: the floor of walkBase's cut
	cnorms  []float64   // ordinal -> docs[ord].Concept.Norm(), the cosine denominator
	vecs    []float64   // the concept vectors, one column: ordinal ord's is vecs[vecAt[ord]:vecAt[ord+1]]
	vecAt   []uint32    // len(ids)+1 offsets into vecs; a document without a vector has an empty range

	// termList is the distinct terms, ascending, and tms[i] locates
	// termList[i]'s blocks: a term is found by binary search (term).
	termList []string
	tms      []termPostings
	blocks   []blockMeta // all terms' block directory, term-major
	data     []byte      // all terms' encoded blocks, one arena

	// Forward index: per ordinal, the document's distinct terms, ascending,
	// as pairs — the term's ID (into termList), then its count there: 8 bytes
	// a posting. withDead charges a killed document's terms to the dead
	// counts from the IDs in O(|doc terms|), so the query path never
	// intersects tombstones with postings; Store.Terms reads the pairs.
	fwd     [][]uint32
	fwdFree []uint32 // the forward lists' one arena, less what addDoc has handed out
	nPost   int      // postings appended: what the next index's arena is sized from
}

// termPostings locates one term's blocks inside the shared directory.
type termPostings struct {
	id       uint32 // position in termList
	df       int32
	blockOff int32
	nBlocks  int32
	maxRatio float64 // max over the term's blocks
}

// blockMeta describes one encoded block without decoding it. firstOrd lets a
// cursor sit at a block boundary with an exact current ordinal while the
// block stays undecoded ("shallow"), so blocks whose maxRatio bound cannot
// reach the top-k threshold are passed without ever touching their bytes.
type blockMeta struct {
	off      uint32 // byte offset of the block in compiledIndex.data
	firstOrd uint32 // ordinal of the first posting in the block
	lastOrd  uint32 // ordinal of the final posting in the block
	count    uint16 // number of postings (1..blockSize)
	maxRatio float64
}

// newCompiledIndex returns an empty index with room for exactly nDocs
// documents carrying nPost postings and nVec vector components between them —
// the document table's columns carved from one array per element type, one
// arena for every forward list — and for about nTerms terms in nBlocks blocks
// of nData bytes. Its builders fill it in order — addDoc in ascending document
// ID, then appendTerm in ascending term — and nothing re-sorts afterwards.
func newCompiledIndex(nDocs, nPost, nVec, nTerms, nBlocks, nData int) *compiledIndex {
	strs := make([]string, nDocs+nTerms)
	floats := make([]float64, 2*nDocs+nVec)
	words := make([]uint32, 2*nDocs+1+2*nPost)
	return &compiledIndex{
		ids:      strs[:0:nDocs],
		docs:     make([]*Document, 0, nDocs),
		docLens:  words[:0:nDocs],
		norms:    floats[:0:nDocs],
		cnorms:   floats[nDocs : nDocs : 2*nDocs],
		vecs:     floats[2*nDocs : 2*nDocs],
		vecAt:    words[nDocs : nDocs+1 : 2*nDocs+1], // vecAt[0] = 0
		termList: strs[nDocs:nDocs],
		tms:      make([]termPostings, 0, nTerms),
		blocks:   make([]blockMeta, 0, nBlocks),
		data:     make([]byte, 0, nData),
		fwd:      make([][]uint32, 0, nDocs),
		fwdFree:  words[2*nDocs+1:],
	}
}

// addDoc gives d, whose ID must sort after every document already added, the
// next ordinal, with room for nTerms distinct terms in its forward list (the
// snapshot loader learns them as it reads, passes 0 and lets the list grow).
// cnorm is d.Concept.Norm(): a carried document brings the one its last index
// held. Ordinals ascend with IDs so that equal scores tie-break identically
// whether a doc is identified by ordinal or by ID.
func (cx *compiledIndex) addDoc(d *Document, docLen uint32, nTerms int, cnorm float64) uint32 {
	ord := uint32(len(cx.ids))
	cx.ids = append(cx.ids, d.ID)
	cx.docs = append(cx.docs, d)
	cx.docLens = append(cx.docLens, docLen)
	cx.norms = append(cx.norms, math.Sqrt(float64(docLen)+1))
	if ord == 0 || cx.norms[ord] < cx.minNorm {
		cx.minNorm = cx.norms[ord]
	}
	cx.cnorms = append(cx.cnorms, cnorm)
	cx.vecs = append(cx.vecs, d.Concept...)
	cx.vecAt = append(cx.vecAt, uint32(len(cx.vecs)))
	cx.fwd = append(cx.fwd, cx.fwdFree[:0:2*nTerms])
	cx.fwdFree = cx.fwdFree[2*nTerms:]
	return ord
}

// ord returns id's ordinal, if cx holds it: ordinals ascend with ids.
func (cx *compiledIndex) ord(id string) (uint32, bool) {
	ord, held := slices.BinarySearch(cx.ids, id)
	return uint32(ord), held
}

// tfWeight is the document-side weight of a term occurring tf times, 1 + ln tf:
// the one place the scorer, the block bounds and TermStats take it from.
// Small tfs — nearly all of them — are read from a table filled at init from
// the same expression, so the bits are the function's by construction. The
// table is back on a profile, not on principle: math.Log was 4% of the
// per-document WAND walk, which is why PR 21 took the table out, and is a
// third of the windowed walk that replaced it (ISSUE 22), whose per-posting
// work is otherwise one add and one bit set.
func tfWeight(tf int) float64 {
	if uint(tf) < uint(len(tfWeights)) {
		return tfWeights[tf]
	}
	return 1 + math.Log(float64(tf))
}

var tfWeights = func() (t [64]float64) {
	for tf := range t {
		t[tf] = 1 + math.Log(float64(tf))
	}
	return t
}()

// appendTerm encodes one term's postings — strictly ascending ordinals of
// documents already added, tf >= 1, term after every term already appended —
// into blocks, block-max bounds, the directory and the forward index. It is
// the only encoder of postings into a compiledIndex: mergeIndex (window, tier
// merge, compactor, Open) and the snapshot loader all end here.
func (cx *compiledIndex) appendTerm(term string, entries []postEntry) {
	ti := uint32(len(cx.termList))
	cx.termList = append(cx.termList, term)
	cx.nPost += len(entries)
	tm := termPostings{id: ti, df: int32(len(entries)), blockOff: int32(len(cx.blocks))}
	for start := 0; start < len(entries); start += blockSize {
		blk := entries[start:min(start+blockSize, len(entries))]
		bm := blockMeta{
			off:      uint32(len(cx.data)),
			firstOrd: blk[0].ord,
			lastOrd:  blk[len(blk)-1].ord,
			count:    uint16(len(blk)),
		}
		for _, e := range blk {
			if r := tfWeight(int(e.tf)) / cx.norms[e.ord]; r > bm.maxRatio {
				bm.maxRatio = r
			}
			cx.fwd[e.ord] = append(cx.fwd[e.ord], ti, e.tf)
		}
		cx.data = appendPostingsBlock(cx.data, blk)
		cx.blocks = append(cx.blocks, bm)
		if bm.maxRatio > tm.maxRatio {
			tm.maxRatio = bm.maxRatio
		}
	}
	tm.nBlocks = int32(len(cx.blocks)) - tm.blockOff
	cx.tms = append(cx.tms, tm)
}

// term locates t's blocks, or is the zero termPostings: no postings here.
func (cx *compiledIndex) term(t string) termPostings {
	if i, ok := slices.BinarySearch(cx.termList, t); ok {
		return cx.tms[i]
	}
	return termPostings{}
}

// buildScratch is the working state of compileDocs and mergeIndex, pooled:
// none of it outlives the index being built, so a commit window allocates its
// index and not the scaffolding around it.
type buildScratch struct {
	ids   []string
	slot  map[string]int
	terms []termPosts
	post  []postEntry
	srcs  []*compiledIndex
	next  []int
}

// termPosts is one term's postings as compileDocs gathers them.
type termPosts struct {
	term string
	n    int
	post []postEntry
}

var buildPool = sync.Pool{New: func() any { return &buildScratch{slot: map[string]int{}} }}

// compileDocs builds the index of docs alone: their per-document term lists
// transposed into per-term postings — counted first, so that every list is
// carved from one array, and filed in ordinal order, so that they ascend.
func compileDocs(docs map[string]batchDoc) *compiledIndex {
	bs := buildPool.Get().(*buildScratch)
	defer buildPool.Put(bs)
	ids, nPost, nVec, dictLen := bs.ids[:0], 0, 0, 0
	for id, e := range docs {
		ids, nPost, nVec = append(ids, id), nPost+len(e.terms), nVec+len(e.doc.Concept)
	}
	slices.Sort(ids)
	clear(bs.slot)
	terms := bs.terms[:0]
	for _, id := range ids {
		for _, tt := range docs[id].terms {
			s, ok := bs.slot[tt.term]
			if !ok {
				s, bs.slot[tt.term] = len(terms), len(terms)
				terms = append(terms, termPosts{term: tt.term})
				dictLen += len(tt.term)
			}
			terms[s].n++
		}
	}
	arena := slices.Grow(bs.post[:0], nPost)[:nPost]
	bs.ids, bs.terms, bs.post = ids, terms, arena
	for i := range terms {
		terms[i].post, arena = arena[:0:terms[i].n], arena[terms[i].n:]
	}
	cx := newCompiledIndex(len(ids), nPost, nVec, len(terms), len(terms), 2*nPost)
	for _, id := range ids {
		e := docs[id]
		ord := cx.addDoc(e.doc, uint32(e.docLen), len(e.terms), e.doc.Concept.Norm())
		for _, tt := range e.terms {
			t := &terms[bs.slot[tt.term]]
			t.post = append(t.post, postEntry{ord: ord, tf: uint32(tt.tf)})
		}
	}
	slices.SortFunc(terms, func(a, b termPosts) int { return strings.Compare(a.term, b.term) })
	var dict strings.Builder
	dict.Grow(dictLen)
	for _, t := range terms {
		cx.appendTerm(ownTerm(&dict, t.term), t.post)
	}
	return cx
}

// ownTerm copies term onto the end of dict, the index's dictionary, and
// returns the copy: an index pins no document's terms, no retired dictionary.
func ownTerm(dict *strings.Builder, term string) string {
	dict.WriteString(term)
	all := dict.String()
	return all[len(all)-len(term):]
}

// leastTerm returns the least of the terms srcs' lists hold at next, each
// source's position in its own: the next term of their merged list.
func leastTerm(srcs []*compiledIndex, next []int) (term string, found bool) {
	for si, src := range srcs {
		if next[si] < len(src.termList) && (!found || src.termList[next[si]] < term) {
			term, found = src.termList[next[si]], true
		}
	}
	return term, found
}

// mergeIndex builds one compiled index over the live documents of segs — a
// document dead, or superseded by b, drops out — and the documents b puts,
// compiled first (compileDocs) and merged as one more index; everything is
// carried over renumbered. Every index not read from a file is made this way
// — by a commit window (no segments: its batch compiled alone), a tier merge
// (the run, with the batch of the window that completes it), the compactor
// and Open (everything) — so an index is a function of immutable published
// state and one window's writes, never a second mutable truth beside it. Beside the index it returns, per segment,
// where each ordinal went (ordSentinel: nowhere). Every surviving posting is
// decoded, renumbered and re-encoded: the cost is that of what is given,
// whatever else the store holds.
func mergeIndex(segs []*segment, b *batch) (*compiledIndex, [][]uint32) {
	if len(segs) == 0 && b != nil {
		return compileDocs(b.byID), nil // a commit window: its batch alone
	}
	bs := buildPool.Get().(*buildScratch)
	defer buildPool.Put(bs)
	// remap takes a source's ordinal to its merged one (monotone over the live
	// ordinals, so a source's renumbered postings stay ascending).
	srcs := bs.srcs[:0]
	remap := make([][]uint32, 0, len(segs)+1)
	nDocs, nPost, nVec, nTerms, nBlocks, nData := 0, 0, 0, 0, 0, 0
	for si, seg := range segs {
		to := make([]uint32, len(seg.cx.ids))
		for _, dead := range [2][]uint32{seg.dead, b.maskedIn(si)} {
			for _, ord := range dead {
				to[ord] = ordSentinel
				nPost -= len(seg.cx.fwd[ord]) / 2
				nVec -= int(seg.cx.vecAt[ord+1] - seg.cx.vecAt[ord])
			}
			nDocs -= len(dead)
		}
		srcs, remap = append(srcs, seg.cx), append(remap, to)
	}
	if b != nil && len(b.byID) > 0 {
		cx := compileDocs(b.byID)
		srcs, remap = append(srcs, cx), append(remap, make([]uint32, len(cx.ids)))
	}
	for _, src := range srcs {
		nDocs, nPost, nVec, nTerms = nDocs+len(src.ids), nPost+src.nPost, nVec+len(src.vecs), nTerms+len(src.termList)
		nBlocks, nData = nBlocks+len(src.blocks), nData+len(src.data)
	}
	bs.srcs = srcs
	if len(srcs) == 1 && nDocs == len(srcs[0].ids) {
		for ord := range remap[0] {
			remap[0][ord] = uint32(ord)
		}
		return srcs[0], remap[:len(segs)] // immutable, so an unchanged index is shared
	}
	cx := newCompiledIndex(nDocs, nPost, nVec, nTerms, nBlocks, nData)

	// The ascending ID lists number the merged documents: the least head
	// goes next.
	next := slices.Grow(bs.next[:0], len(srcs))[:len(srcs)] // per source, the least ordinal not yet passed
	clear(next)
	bs.next = next
	for {
		from := -1
		for si, src := range srcs {
			for next[si] < len(src.ids) && remap[si][next[si]] == ordSentinel {
				next[si]++
			}
			if next[si] < len(src.ids) && (from < 0 || src.ids[next[si]] < srcs[from].ids[next[from]]) {
				from = si
			}
		}
		if from < 0 {
			break
		}
		src, old := srcs[from], next[from]
		remap[from][old] = cx.addDoc(src.docs[old], src.docLens[old], len(src.fwd[old])/2, src.cnorms[old])
		next[from]++
	}

	clear(next) // now: per source, the next term of its list, walked once to size the dictionary
	dictLen := 0
	for term, found := leastTerm(srcs, next); found; term, found = leastTerm(srcs, next) {
		dictLen += len(term)
		for si, src := range srcs {
			if next[si] < len(src.termList) && src.termList[next[si]] == term {
				next[si]++
			}
		}
	}
	var dict strings.Builder
	dict.Grow(dictLen)

	// Term by term, in ascending order across the sources: each source that
	// lists the term gives a run of renumbered postings, ascending, and the
	// runs — their ordinals are distinct — are put in order. A term left
	// without a carrier is dropped: a fresh build never lists one.
	var ords, tfs [blockSize]uint32
	buf := bs.post[:0]
	clear(next)
	for {
		term, found := leastTerm(srcs, next)
		if !found {
			bs.post = buf // its capacity, for the next build
			return cx, remap[:len(segs)]
		}
		buf = buf[:0]
		runs := 0
		for si, src := range srcs {
			if next[si] == len(src.termList) || src.termList[next[si]] != term {
				continue
			}
			start := len(buf)
			for _, bm := range src.termBlocks(src.tms[next[si]]) {
				n := int(bm.count)
				if _, err := decodePostingsBlock(src.data[bm.off:], n, ords[:n], tfs[:n]); err != nil {
					panic(err) // in-memory arena, validated when it was built
				}
				for k, old := range ords[:n] {
					if ord := remap[si][old]; ord != ordSentinel {
						buf = append(buf, postEntry{ord: ord, tf: tfs[k]})
					}
				}
			}
			if next[si]++; len(buf) > start {
				runs++
			}
		}
		if runs > 1 {
			slices.SortFunc(buf, func(a, b postEntry) int { return cmp.Compare(a.ord, b.ord) })
		}
		if runs > 0 {
			cx.appendTerm(ownTerm(&dict, term), buf)
		}
	}
}

// termBlocks returns the slice of block metadata for tm.
func (cx *compiledIndex) termBlocks(tm termPostings) []blockMeta {
	return cx.blocks[tm.blockOff : tm.blockOff+tm.nBlocks]
}

// searchStats counts block-level work for one query.
type searchStats struct {
	blocksDecoded uint64
	blocksSkipped uint64
}

// queryTerm is one distinct query term in canonical (first-appearance)
// order, with its query-side weight. Scores are accumulated per document in
// this order on every path — block-max and exhaustive, in every segment — so
// float rounding is identical everywhere.
type queryTerm struct {
	t   string
	qn  int // occurrences in the query
	df  int // live carriers in this snapshot
	idf float64
	qw  float64 // (1+ln qn) * idf
}

// cursor walks one term's compressed postings, decoding at most one block at
// a time into its inline buffers. A cursor can be "shallow": positioned on a
// block's first posting (curOrd = firstOrd, exact) with the block not yet
// decoded. Blocks that never survive a bound check are passed shallow,
// without touching their bytes. curOrd == ordSentinel means exhausted.
type cursor struct {
	idf    float64
	qw     float64
	termUB float64 // qw * idf * term maxRatio: best score mass this term can add
	blocks []blockMeta
	data   []byte
	bi     int  // current block index
	loaded bool // current block decoded into ords/tfs
	n      int  // decoded entries in the current block
	pos    int  // position within the decoded block
	curOrd uint32
	ords   [blockSize]uint32
	tfs    [blockSize]uint32
}

func (c *cursor) decodeBlock(st *searchStats) {
	bm := &c.blocks[c.bi]
	n := int(bm.count)
	if _, err := decodePostingsBlock(c.data[bm.off:], n, c.ords[:n], c.tfs[:n]); err != nil {
		// The arena is either compiled in-process or fully validated at
		// snapshot load, so a decode failure here is a program bug.
		panic(err)
	}
	c.loaded = true
	c.n = n
	c.pos = 0
	st.blocksDecoded++
}

// enterShallow positions the cursor on block bi's first posting without
// decoding it (or marks the cursor exhausted past the last block).
func (c *cursor) enterShallow(bi int) {
	c.bi = bi
	c.loaded = false
	if bi >= len(c.blocks) {
		c.curOrd = ordSentinel
		return
	}
	c.curOrd = c.blocks[bi].firstOrd
}

// seek advances the cursor to the first posting with ordinal >= target,
// skipping (without decoding) every block that ends before it — including
// the current one if it was never loaded.
func (c *cursor) seek(target uint32, st *searchStats) {
	if c.curOrd >= target { // includes the exhausted sentinel
		return
	}
	if c.blocks[c.bi].lastOrd < target {
		if !c.loaded {
			st.blocksSkipped++
		}
		bi := c.bi + 1
		for bi < len(c.blocks) && c.blocks[bi].lastOrd < target {
			bi++
			st.blocksSkipped++
		}
		c.enterShallow(bi)
		if c.curOrd >= target { // exhausted, or the first posting already qualifies
			return
		}
	}
	if !c.loaded {
		c.decodeBlock(st)
	}
	for c.pos < c.n && c.ords[c.pos] < target {
		c.pos++
	}
	// The current block's lastOrd >= target, so pos is in range.
	c.curOrd = c.ords[c.pos]
}

// addWindow adds the term's score mass for every posting below hi into
// sc.acc, slot ord-lo, marking each slot it writes in sc.touched, and leaves
// the cursor on its first posting at or past hi.
func (c *cursor) addWindow(lo, hi uint32, sc *searchScratch) {
	for c.curOrd < hi {
		if !c.loaded {
			c.decodeBlock(&sc.stats)
		}
		p := c.pos
		for ; p < c.n && c.ords[p] < hi; p++ {
			slot := (c.ords[p] - lo) % windowSize // in range already: the mask spares a bounds check
			sc.acc[slot] += c.qw * (tfWeight(int(c.tfs[p])) * c.idf)
			sc.touched[slot/64] |= 1 << (slot % 64)
		}
		if p < c.n {
			c.pos, c.curOrd = p, c.ords[p]
			return
		}
		c.enterShallow(c.bi + 1)
	}
}

// IDF, QueryWeight and BoundSlack are exported for the scatter router, whose
// per-shard bounds and global weights must be these floats to the bit.

// IDF is the inverse document frequency of a term that df of total
// documents carry.
func IDF(total, df uint64) float64 {
	return math.Log(1 + float64(total)/float64(1+df))
}

// QueryWeight is the weight of a term the query repeats qn times.
func QueryWeight(qn int, idf float64) float64 {
	return (1 + math.Log(float64(qn))) * idf
}

// BoundSlack pads upper-bound comparisons so IEEE rounding in the bound
// arithmetic can never make a block (in the router, a shard) look skippable
// when the exactly-scored document would have entered the heap. The true
// score and its bound differ by at most a handful of rounded
// multiply/divide/add steps per term, each contributing a relative error of
// 2^-53; 1e-9 over-covers that by ~10^6× while costing no measurable
// skipping power.
const BoundSlack = 1 + 1e-9

// searchScratch is the pooled per-query state that makes the steady-state
// text query allocation-free, and a vector or hybrid query allocate only its
// result: every slice below retains its backing array across queries, and
// the maps are emptied rather than reallocated.
type searchScratch struct {
	keyBuf  []byte
	terms   []queryTerm
	tms     []termPostings // segment-major, one per (segment, query term): the zero value where the term is absent
	cursors []cursor       // one segment's, reused from segment to segment
	ords    []uint32       // segment offset + ordinal: a probe's candidates
	heap    []scored       // the text top-k
	vecPool []scored       // the vector selection
	vecCut  []float64      // a vector search's scores, aligned with ords, then the copy its cut reorders
	outPool []scored       // the hybrid's blended selection
	stats   searchStats
	// slot, by segment offset + ordinal (segOff[si] is segment si's offset),
	// files a number per document — a probe marks what it has collected, a
	// blend notes each text hit's place in its pool — and is zero between uses.
	slot   []int32
	segOff []uint32
	// A segment walk's window: acc[i] is the score mass gathered for ordinal
	// lo+i and touched has a bit per slot written. Inline, so the pooled
	// scratch carries them and a search allocates neither; both are zero
	// between windows.
	acc     [windowSize]float64
	touched [windowSize / 64]uint64
}

// growSlots numbers the documents of segs — segOff[si] + ordinal — and makes
// slot cover them.
func (sc *searchScratch) growSlots(segs []*segment) {
	sc.segOff = sc.segOff[:0]
	n := 0
	for _, seg := range segs {
		sc.segOff = append(sc.segOff, uint32(n))
		n += len(seg.cx.ids)
	}
	for len(sc.slot) < n {
		sc.slot = append(sc.slot, 0)
	}
}

// slotOf is where r's document is filed in slot; takeSlot returns what is
// filed there (zero: nothing) and clears it.
func (sc *searchScratch) slotOf(r scored) uint32 { return sc.segOff[r.seg] + r.ord }

func (sc *searchScratch) takeSlot(r scored) (v int32) {
	at := sc.slotOf(r)
	v, sc.slot[at] = sc.slot[at], 0
	return v
}

var scratchPool = sync.Pool{New: func() any { return &searchScratch{} }}

func getScratch() *searchScratch {
	sc := scratchPool.Get().(*searchScratch)
	sc.stats = searchStats{}
	return sc
}

func putScratch(sc *searchScratch) { scratchPool.Put(sc) }

// searchCompiled runs the text top-k over the compiled segments under one
// heap. In each segment, terms become cursors over their compressed postings
// and walkBase scores them a window of ordinals at a time; in block-max mode
// (exhaustive=false) the topK heap's minimum is the threshold θ — one θ,
// carried through every segment — and a window whose summed block upper
// bounds cannot reach it is passed without decoding. Exhaustive mode is the
// same walk with the bound checks off, so the two are bit-identical on the
// documents they both score — and the skipped ones provably lose.
//
// The result is the k best, scratch-backed and not yet ranked (assembleHits
// ranks). Set and scores match the historical map-walk scorer: contributions
// accumulate per document in canonical query-term order, and the heap's
// (score desc, id asc) total order makes the top-k set independent of
// candidate arrival order — of which segment holds a document, too.
//
// gs, when non-nil, replaces the snapshot's document count and per-term
// document frequencies with corpus-wide figures supplied by a scatter
// router. The idf and query weights then come out as the exact floats a
// single node holding the whole corpus would compute, which is what makes
// a sharded top-k merge bit-identical to the monolithic result. Term
// frequencies and norms stay local — they are per-document facts.
func (sn *snapshot) searchCompiled(tokens []string, k int, sc *searchScratch, exhaustive bool, gs *GlobalStats) []scored {
	total := sn.docCount()
	if gs != nil {
		total = int(gs.TotalDocs)
	}
	if total == 0 || len(tokens) == 0 || k == 0 {
		return nil
	}

	// Distinct terms in first-appearance order with query-side tf.
	sc.terms = sc.terms[:0]
tokenLoop:
	for _, t := range tokens {
		for i := range sc.terms {
			if sc.terms[i].t == t {
				sc.terms[i].qn++
				continue tokenLoop
			}
		}
		sc.terms = append(sc.terms, queryTerm{t: t, qn: 1})
	}

	// Per-term document frequency (each segment's live carriers) and idf;
	// where each segment keeps the term is filed for the walks.
	sc.tms = sc.tms[:0]
	for _, seg := range sn.segs {
		for i := range sc.terms {
			tm := seg.cx.term(sc.terms[i].t) // zero without postings here
			sc.tms = append(sc.tms, tm)
			sc.terms[i].df += seg.liveDF(tm)
		}
	}
	for i := range sc.terms {
		qt := &sc.terms[i]
		if gs != nil {
			qt.df = int(gs.dfOf(qt.t))
		}
		if qt.df > 0 {
			qt.idf = IDF(uint64(total), uint64(qt.df))
			qt.qw = QueryWeight(qt.qn, qt.idf)
		}
	}

	h := topK{k: k, items: sc.heap[:0]}

	// Oldest segment first: it is the largest, and the θ it leaves lets most
	// of the small ones end at their first bound check.
	for si, seg := range sn.segs {
		sc.cursors = sc.cursors[:0]
		for i := range sc.terms {
			qt, tm := &sc.terms[i], sc.tms[si*len(sc.terms)+i]
			if qt.qw == 0 || tm.df == 0 {
				continue
			}
			sc.cursors = append(sc.cursors, cursor{
				idf:    qt.idf,
				qw:     qt.qw,
				termUB: qt.qw * qt.idf * tm.maxRatio,
				blocks: seg.cx.termBlocks(tm),
				data:   seg.cx.data,
			})
			sc.cursors[len(sc.cursors)-1].enterShallow(0)
		}
		if len(sc.cursors) > 0 {
			sn.walkBase(si, &h, sc, exhaustive)
		}
	}

	sc.heap = h.items[:0] // retain backing for the next query
	return h.items
}

// windowSize is how many consecutive ordinals a segment walk scores at a
// time: 8 KB of accumulators, which stay in the first-level cache.
const windowSize = 1024

// walkBase scores segment si's postings a window of ordinals at a time. A
// window starts at the least ordinal any cursor stands on; each cursor in
// turn, in canonical term order, adds its postings below the window's end
// into the accumulators, and one sweep over the touched slots passes the
// tombstones, divides by the norm and offers the heap what is not below its
// threshold θ. A slot starts at zero and takes its terms in canonical order,
// so a score is the same sequence of float operations whatever the window.
//
// Unless exhaustive, once the heap is full a window also ends with the block
// its leading cursor stands in, and is passed undecoded when the best its
// blocks could add cannot reach θ: a document holds a term at most once, so
// within the window it draws on at most one block per cursor, and its score
// is at most the sum over cursors of qw·idf·maxRatio of the best block
// overlapping the window. The sweep turns a slot away undivided, as the heap
// would, when its mass is below cut = θ·minNorm/BoundSlack: no norm is less.
func (sn *snapshot) walkBase(si int, h *topK, sc *searchScratch, exhaustive bool) {
	cx := sn.segs[si].cx
	cursors := sc.cursors

	// The segment's tombstones ascend, and so do the ordinals evaluated: a
	// monotonic pointer replaces per-candidate lookups.
	dead := sn.segs[si].dead
	cut := 0.0 // a slot's mass below it cannot reach θ, whatever its norm

	for {
		lo, lead, ub := ordSentinel, 0, 0.0
		for i := range cursors {
			if c := &cursors[i]; c.curOrd != ordSentinel {
				ub += c.termUB
				if c.curOrd < lo {
					lo, lead = c.curOrd, i
				}
			}
		}
		if lo == ordSentinel {
			return
		}
		hi := uint32(min(uint64(lo)+windowSize, uint64(ordSentinel)))

		if !exhaustive && len(h.items) == h.k {
			theta := h.items[0].score
			cut = theta * cx.minNorm / BoundSlack
			if ub*BoundSlack < theta {
				return // even all remaining terms together cannot reach θ
			}
			if c := &cursors[lead]; c.blocks[c.bi].lastOrd < hi {
				hi = c.blocks[c.bi].lastOrd + 1
			}
			bound := 0.0
			for i := range cursors {
				c := &cursors[i]
				if c.curOrd >= hi {
					continue
				}
				best := 0.0
				for _, bm := range c.blocks[c.bi:] {
					if bm.firstOrd >= hi {
						break
					}
					best = max(best, bm.maxRatio)
				}
				bound += c.qw * c.idf * best
			}
			if bound*BoundSlack < theta {
				for i := range cursors {
					cursors[i].seek(hi, &sc.stats)
				}
				continue
			}
		}

		for i := range cursors {
			cursors[i].addWindow(lo, hi, sc)
		}
		for w, set := range sc.touched[:(hi-lo+63)/64] {
			sc.touched[w] = 0
			for ; set != 0; set &= set - 1 {
				slot := w*64 + bits.TrailingZeros64(set)
				d := lo + uint32(slot)
				acc := sc.acc[slot]
				sc.acc[slot] = 0
				if acc < cut {
					continue
				}
				for len(dead) > 0 && dead[0] < d {
					dead = dead[1:]
				}
				if len(dead) > 0 && dead[0] == d {
					continue
				}
				score := acc / cx.norms[d]
				if len(h.items) == h.k && score < h.items[0].score {
					continue // below θ: the heap would turn it away
				}
				h.push(scored{id: cx.ids[d], seg: int32(si), ord: d, score: score})
				if !exhaustive && len(h.items) == h.k {
					cut = h.items[0].score * cx.minNorm / BoundSlack
				}
			}
		}
	}
}

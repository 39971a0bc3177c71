package docstore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/feature"
)

// This file implements the lock-free read path. The published snapshot is the
// store's only state: the write path (serialized by Store.mu) reads it exactly
// as readers do, builds its successor and publishes that through an atomic
// pointer. Readers load the snapshot once and never touch the store lock, and
// a reader holding an old snapshot keeps seeing the old epoch, segments merged
// away since included: nothing it points at is ever written again.
//
//	snapshot = { epoch; segs: immutable segments, oldest first }
//
// A segment is the compiled form of a fixed document set plus what later
// writes superseded in it: its dead ordinals and, per term, how many dead
// documents carry it. The indexes never change; tombstones and counts are
// replaced copy-on-write (withDead) in a new entry that shares the indexes.
// An id is live in at most one place — whoever writes it kills the copy below
// first — so the newest segment holding an id decides whether it is live.
//
// A commit window costs what it writes. Its writes are staged as a batch —
// the documents it puts, and per segment the ordinals it supersedes or
// deletes — whose documents are compiled into a segment of their own
// (buildSegment over no segments) while its tombstones are folded into the
// entries they touch; the successor is one epoch. Then the tiers (mergeRun):
// a run of the newest segments, each at most tierRatio times what is gathered
// behind it, and any segment more than deadShare dead, is replaced, inline,
// by one segment at the newest place, so a document is rewritten
// O(log(store/window)) times and the list holds O(log store) segments. The
// compactor and Open merge everything into the one index the v2 file holds.
//
// Exactness contract: every read through segs is result-identical to the
// same read against one index over the live documents. Text: one heap and one
// θ over a walkBase per segment, df = Σ segment df − dead, float order fixed
// by searchCompiled's canonical term order, ties (score desc, id asc).
// Vectors: the scan over every segment's live vectors is the monolith's scan.
// Time scans are k-way merges, counts are sums. TestSnapshotMatchesMonolithic
// and TestReadsMatchBruteForce pin it across windows and both kinds of merge.

// segment is one immutable entry of the snapshot's list. cx and byTime are
// fixed when buildSegment returns; dead, deadDF, topics and visuals are
// replaced, never written, by withDead.
type segment struct {
	cx *compiledIndex // text index, vector column and document table
	// byTime ascends by (CreatedAt, id) and names ordinals, so a scan tests
	// liveness without an id lookup.
	byTime []timeEntry

	dead   []uint32       // ordinals superseded or deleted since the segment was built, ascending
	deadDF []int32        // term id -> dead carriers; nil while nothing is dead
	topics map[string]int // topic -> live documents carrying it
	// visuals counts live docs carrying visual features, so SearchVisual can
	// return before building any scratch state when there are none.
	visuals int
}

// The segment list's constants; DESIGN.md §4c has the measurements behind them.
const (
	// tierRatio: a segment joins the newest run while it is at most this many
	// times the run so far, so sizes at least double towards the oldest.
	tierRatio = 1
	// More than this share dead, a segment joins the next merge: at a half,
	// every document rewritten is paid for by one that died.
	deadShareNum, deadShareDen = 1, 2
)

func (seg *segment) live() int { return len(seg.cx.ids) - len(seg.dead) }

// isDead reports whether ord is dead.
func (seg *segment) isDead(ord uint32) bool {
	_, dead := slices.BinarySearch(seg.dead, ord)
	return dead
}

// liveDF is how many live documents carry the term tm locates in seg's index
// (the zero tm: none).
func (seg *segment) liveDF(tm termPostings) int {
	if tm.df == 0 || seg.deadDF == nil {
		return int(tm.df)
	}
	return int(tm.df - seg.deadDF[tm.id])
}

// holder finds the newest of segs that holds id, live or dead — the one that
// decides whether it is live (see the file comment): its place in segs and
// id's ordinal there, or si < 0.
func holder(segs []*segment, id string) (si int, ord uint32) {
	for si = len(segs) - 1; si >= 0; si-- {
		if ord, held := segs[si].cx.ord(id); held {
			return si, ord
		}
	}
	return -1, 0
}

// tally counts d into (by = 1) or out of (-1) seg's topic and visual counts.
func (seg *segment) tally(d *Document, by int) {
	for i, t := range d.Topics {
		if slices.Contains(d.Topics[:i], t) {
			continue // listed twice, carried once
		}
		if seg.topics[t] += by; seg.topics[t] == 0 {
			delete(seg.topics, t)
		}
	}
	if hasVisual(d) {
		seg.visuals += by
	}
}

// buildSegment is the one builder of a segment: the live documents of segs and
// the documents b puts, compiled together, less what b supersedes in segs. A
// commit window calls it over no segments, a tier merge over its run (with
// the batch of the window that completes it), Open and the tests' monolith
// over everything. Documents are shared, never copied: nothing mutates a
// stored *Document.
func buildSegment(segs []*segment, b *batch) *segment {
	cx := mergeIndex(segs, b)
	seg := &segment{cx: cx, byTime: make([]timeEntry, len(cx.ids)), topics: map[string]int{}}
	for ord, d := range cx.docs {
		seg.tally(d, 1)
		seg.byTime[ord] = timeEntry{key: d.CreatedAt, ord: uint32(ord)}
	}
	// Ordinals ascend with ids, so (CreatedAt, ordinal) is (CreatedAt, id).
	slices.SortFunc(seg.byTime, func(a, b timeEntry) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.ord, b.ord)) })
	return seg
}

// withDead returns seg's successor entry: the same indexes, the ordinals in
// masked — live in seg until now — dead too. It copies the tombstones and the
// counts, O(dead + terms + topics), and reads of the index only the masked
// documents' forward lists.
func (seg *segment) withDead(masked []uint32) *segment {
	if len(masked) == 0 {
		return seg
	}
	ns := *seg
	ns.dead = append(make([]uint32, 0, len(seg.dead)+len(masked)), seg.dead...)
	ns.deadDF = append(make([]int32, 0, len(seg.cx.termList)), seg.deadDF...)[:len(seg.cx.termList)]
	ns.topics = maps.Clone(seg.topics)
	for _, ord := range masked {
		at, _ := slices.BinarySearch(ns.dead, ord)
		ns.dead = slices.Insert(ns.dead, at, ord)
		for f := seg.cx.fwd[ord]; len(f) > 0; f = f[2:] {
			ns.deadDF[f[0]]++
		}
		ns.tally(seg.cx.docs[ord], -1)
	}
	return &ns
}

// mergeRun splits segs (oldest first, as a window's fold leaves them) into
// those to keep and the run to merge into one segment at the newest place,
// together with the fresh documents the window puts, which lead the run:
// walking back from the newest, a segment joins while it is at most tierRatio
// times the live documents gathered so far, and any segment more than
// deadShare dead joins wherever it sits. Segments with nothing live are in
// neither. A run of one — one segment, or the fresh documents alone — is no
// merge. The list is returned as it was when nothing changes.
func mergeRun(segs []*segment, fresh int) (keep, run []*segment) {
	walk := func(visit func(seg *segment, joins bool)) {
		size, chain := fresh, true
		for i := len(segs) - 1; i >= 0; i-- {
			seg := segs[i]
			n := seg.live()
			chain = chain && (size == 0 || n <= tierRatio*size)
			joins := n > 0 && (chain || len(seg.dead)*deadShareDen > len(seg.cx.ids)*deadShareNum)
			if joins {
				size += n
			}
			visit(seg, joins)
		}
	}
	joined, empty := min(fresh, 1), false
	walk(func(seg *segment, joins bool) {
		if joins {
			joined++
		}
		empty = empty || seg.live() == 0
	})
	if joined < 2 && !empty {
		return segs, nil
	}
	keep, run = make([]*segment, 0, len(segs)), make([]*segment, 0, joined)
	walk(func(seg *segment, joins bool) {
		switch {
		case joins:
			run = append(run, seg)
		case seg.live() > 0:
			keep = append(keep, seg)
		}
	})
	slices.Reverse(keep)
	slices.Reverse(run)
	if joined < 2 { // run holds the newest segment with anything live, which goes last, or nothing
		return append(keep, run...), nil
	}
	return keep, run
}

func hasVisual(d *Document) bool {
	return len(d.ColorHist) > 0 || len(d.Texture) > 0
}

// timeEntry is one entry of a segment's time index: a document's CreatedAt
// and its ordinal.
type timeEntry struct {
	key int64
	ord uint32
}

// batch is a commit window's writes, staged over the segment list the window
// found, as mergeIndex and buildSegment read them: the documents it puts, by
// id — a later write of an id in the window replaces the earlier one — and,
// per segment, the ordinals of the documents it supersedes or deletes,
// ascending. Open's replay of the log is one batch over the snapshot file's
// segment.
type batch struct {
	masked [][]uint32
	byID   map[string]batchDoc
}

// batchDoc is one document a batch puts, its distinct terms, ascending (the
// slice is immutable), and its token count.
type batchDoc struct {
	doc    *Document
	terms  []termTF
	docLen int
}

// newBatch returns an empty batch for about n writes over nSegs segments.
func newBatch(n, nSegs int) *batch {
	return &batch{masked: make([][]uint32, nSegs), byID: make(map[string]batchDoc, n)}
}

// maskedIn returns what b supersedes in segment si; a nil batch, nothing.
func (b *batch) maskedIn(si int) []uint32 {
	if b != nil && si < len(b.masked) {
		return b.masked[si]
	}
	return nil
}

// put stages d, with what docTerms gave for it, over segs: its version there masked.
func (b *batch) put(d *Document, terms []termTF, docLen int, segs []*segment) {
	b.delete(d.ID, segs)
	b.byID[d.ID] = batchDoc{doc: d, terms: terms, docLen: docLen}
}

// delete stages a delete of id over segs: a version b puts is dropped, the
// one live in segs masked (once: an id masked already stays so).
func (b *batch) delete(id string, segs []*segment) {
	delete(b.byID, id)
	si, ord := holder(segs, id)
	if si < 0 || segs[si].isDead(ord) {
		return
	}
	if at, masked := slices.BinarySearch(b.masked[si], ord); !masked {
		b.masked[si] = slices.Insert(b.masked[si], at, ord)
	}
}

// termTF is one distinct term of a document and its frequency there.
type termTF struct {
	term string
	tf   int
}

// docTerms returns what sorting and counting d.Tokens() gives — d's distinct
// terms, ascending, with their counts, and its token count — without a string
// per token: the tokens' spans in a pooled buffer are sorted and the distinct
// ones copied into one string, so a document costs two allocations.
func docTerms(d *Document) ([]termTF, int) {
	sc := termPool.Get().(*termScratch)
	defer termPool.Put(sc)
	buf, spans := sc.buf[:0], sc.spans[:0]
	var tz feature.Tokenizer
	sc.texts = d.Texts(sc.texts[:0])
	for _, text := range sc.texts {
		tz.Reset(text)
		for tok, ok := tz.Next(); ok; tok, ok = tz.Next() {
			var key [8]byte
			copy(key[:], tok)
			spans = append(spans, tokSpan{key: binary.BigEndian.Uint64(key[:]), off: uint32(len(buf)), n: uint32(len(tok))})
			buf = append(buf, tok...)
		}
	}
	sc.buf, sc.spans = buf, spans
	compare := func(a, b tokSpan) int {
		if c := cmp.Compare(a.key, b.key); c != 0 || max(a.n, b.n) <= 8 {
			return c // equal keys, and both tokens within them: the same token
		}
		return bytes.Compare(buf[a.off+8:a.off+a.n], buf[b.off+8:b.off+b.n])
	}
	slices.SortFunc(spans, compare)
	n, size := 0, 0
	for i, s := range spans {
		if i == 0 || compare(spans[i-1], s) != 0 {
			n, size = n+1, size+int(s.n)
		}
	}
	out := make([]termTF, 0, n)
	var dict strings.Builder
	dict.Grow(size)
	for i, s := range spans {
		if i == 0 || compare(spans[i-1], s) != 0 {
			dict.Write(buf[s.off : s.off+s.n])
			all := dict.String()
			out = append(out, termTF{term: all[len(all)-int(s.n):]})
		}
		out[len(out)-1].tf++
	}
	return out, len(spans)
}

// termScratch is docTerms' working state, pooled: a document's texts, its
// tokens packed end to end, and where each lies.
type termScratch struct {
	texts []string
	buf   []byte
	spans []tokSpan
}

// tokSpan is one token of termScratch.buf, keyed by its first eight bytes,
// big-endian and zero-padded: no token holds a zero byte, so keys order as
// the tokens do, up to ties.
type tokSpan struct {
	key    uint64
	off, n uint32
}

var termPool = sync.Pool{New: func() any { return new(termScratch) }}

// snapshot is one published epoch: an immutable view of the store, and all
// the state the store has. Its counts are sums over a handful of segments.
type snapshot struct {
	epoch uint64
	segs  []*segment // oldest first
}

func (sn *snapshot) docCount() int {
	n := 0
	for _, seg := range sn.segs {
		n += seg.live()
	}
	return n
}

func (sn *snapshot) visualCount() int {
	n := 0
	for _, seg := range sn.segs {
		n += seg.visuals
	}
	return n
}

// getDoc returns the live document for id, or nil: the one in the newest
// segment holding the id, if it is live there. The pointer is snapshot-owned
// and must be cloned before leaving the store.
func (sn *snapshot) getDoc(id string) *Document {
	if si, ord := holder(sn.segs, id); si >= 0 && !sn.segs[si].isDead(ord) {
		return sn.segs[si].cx.docs[ord]
	}
	return nil
}

// searchTextRaw ranks against the merged index (block-max over each compiled
// segment), under this snapshot's own statistics or, with a non-nil gs,
// router-supplied ones (see GlobalStats). Returned hits share snapshot-owned
// documents — they are read-only for callers.
func (sn *snapshot) searchTextRaw(tokens []string, k int, sc *searchScratch, gs *GlobalStats) []Hit {
	return sn.assembleHits(sn.searchCompiled(tokens, k, sc, false, gs))
}

// searchTextExhaustive is the reference scorer: the same accumulation code
// with early termination disabled, so every candidate is scored. Property
// tests pin searchTextRaw bit-identical to it.
func (sn *snapshot) searchTextExhaustive(tokens []string, k int, sc *searchScratch) []Hit {
	return sn.assembleHits(sn.searchCompiled(tokens, k, sc, true, nil))
}

// assembleHits ranks a search's kept set, in place, and resolves its
// (segment, ordinal) pairs into hits that keep them. The scored slice is
// scratch-backed, so hits must be built before the scratch is reused.
func (sn *snapshot) assembleHits(kept []scored) []Hit {
	if len(kept) == 0 {
		return nil
	}
	h := topK{items: kept}
	hits := make([]Hit, 0, len(kept)) //lint:allow hotalloc the one documented cold-query allocation: the returned []Hit
	for _, r := range h.sorted() {
		cx := sn.segs[r.seg].cx
		hits = append(hits, Hit{Doc: cx.docs[r.ord], Score: r.score, cx: cx, ord: r.ord}) //lint:allow hotalloc appends into the sized cold-query allocation above; never grows
	}
	return hits
}

// searchVectorRaw selects the k live documents most cosine-similar to q by
// an exact scan: every live document with a concept vector is a candidate.
// One pass over each segment's vector column scores every document into
// scores filed by segment offset + ordinal, NaN for a document without a
// vector or dead; only those scoring at least the k-th best score θ — which
// no NaN does — are offered to a selection. Unranked, like searchCompiled's.
func (sn *snapshot) searchVectorRaw(q feature.Vector, k int, sc *searchScratch) []scored {
	n, qn := sc.growSlots(sn.segs), q.Norm()
	sc.vecCut = slices.Grow(sc.vecCut[:0], 2*n)[:2*n]
	scores, live, theta := sc.vecCut[:n], 0, math.Inf(-1)
	for si, seg := range sn.segs {
		live += seg.cosines(q, qn, scores[sc.segOff[si]:][:len(seg.cx.ids)])
	}
	if k > 0 && live > k {
		theta = kthBest(sc.vecCut[n:], scores, k)
	}
	sel := selection{k: k, items: sc.vecPool[:0]}
	for si, seg := range sn.segs {
		for ord, s := range scores[sc.segOff[si]:][:len(seg.cx.ids)] {
			if s >= theta {
				sel.offer(scored{id: seg.cx.ids[ord], seg: int32(si), ord: uint32(ord), score: s})
			}
		}
	}
	sc.vecPool = sel.best()
	return sc.vecPool
}

// cosines scores q, whose norm is qn, against the vector of each of seg's
// ordinals into out, each with feature.Cosine's bits: four at a time, a last
// group short of four repeating its last vector. An ordinal without a vector
// or dead scores NaN; it returns how many scored a number.
func (seg *segment) cosines(q feature.Vector, qn float64, out []float64) int {
	cx, n, live := seg.cx, len(out), 0
	vec := func(o int) feature.Vector {
		o = min(o, n-1)
		return cx.vecs[cx.vecAt[o]:cx.vecAt[o+1]]
	}
	for i := 0; i < n; i += 4 {
		var d [4]float64
		d[0], d[1], d[2], d[3] = feature.Dot4(q, vec(i), vec(i+1), vec(i+2), vec(i+3))
		for l, dot := range d[:min(4, n-i)] {
			if o := i + l; cx.vecAt[o] == cx.vecAt[o+1] {
				out[o] = math.NaN()
			} else {
				out[o], live = feature.CosineDot(dot, qn, cx.cnorms[o]), live+1
			}
		}
	}
	for _, o := range seg.dead {
		if !math.IsNaN(out[o]) {
			out[o], live = math.NaN(), live-1
		}
	}
	return live
}

// searchHybridRaw ranks by (1-alpha)*text + alpha*vector over the union of
// two pools — the max(4k, 32) best text hits and as many vector hits — each
// score first divided by its pool's best (a pool whose best is not positive
// contributes zeros; a document outside a pool scores zero there). The text
// pool is filed by segment offset + ordinal, each vector hit takes its text
// score from there, the text hits left follow, and a selection keeps k of the
// blend: nothing is ranked or keyed by id but the k that assembleHits ranks.
func (sn *snapshot) searchHybridRaw(tokens []string, concept feature.Vector, alpha float64, k int, sc *searchScratch) []Hit {
	pool := max(k*4, 32)
	text := sn.searchCompiled(tokens, pool, sc, false, nil)
	vec := sn.searchVectorRaw(concept, pool, sc)
	var tmax, vmax float64
	for _, r := range text {
		tmax = max(tmax, r.score)
	}
	for _, r := range vec {
		vmax = max(vmax, r.score)
	}
	share := func(score, of float64) float64 {
		if of == 0 {
			return 0
		}
		return score / of
	}
	blend := func(ts, vs float64) float64 { return (1-alpha)*ts + alpha*vs }
	sc.growSlots(sn.segs)
	for i, r := range text {
		sc.slot[sc.slotOf(r)] = int32(i + 1)
	}
	sel := selection{k: k, items: sc.outPool[:0]}
	for _, r := range vec {
		ts := 0.0
		if at := sc.takeSlot(r); at != 0 {
			ts = share(text[at-1].score, tmax)
		}
		r.score = blend(ts, share(r.score, vmax))
		sel.offer(r)
	}
	for _, r := range text {
		if sc.takeSlot(r) != 0 {
			r.score = blend(share(r.score, tmax), 0)
			sel.offer(r)
		}
	}
	sc.outPool = sel.best()
	return sn.assembleHits(sc.outPool)
}

// timeRun is the part [lo, hi) of one segment's time index a scan has yet to
// visit.
type timeRun struct {
	seg    *segment
	lo, hi int
}

// at returns the key and id of r's entry i.
func (r *timeRun) at(i int) (int64, string) {
	e := r.seg.byTime[i]
	return e.key, r.seg.cx.ids[e.ord]
}

// scanTime visits the live documents with CreatedAt in [from, to], by
// (CreatedAt, id) ascending or (desc) descending, each as the segment and
// ordinal that hold it — a k-way merge of the segments' time indexes (a dead
// ordinal is passed after one binary search, no id lookup), from the heads or
// from the tails, yielding exactly the sequence one index over the live set
// would; a bounded scan costs what it visits. limit < 0 means unbounded; it
// counts visits.
func (sn *snapshot) scanTime(from, to int64, desc bool, limit int, visit func(seg *segment, ord uint32) bool) {
	runs := make([]timeRun, len(sn.segs))
	for i, seg := range sn.segs {
		ents := seg.byTime
		lo := sort.Search(len(ents), func(i int) bool { return ents[i].key >= from })
		hi := max(lo, sort.Search(len(ents), func(i int) bool { return ents[i].key > to }))
		runs[i] = timeRun{seg: seg, lo: lo, hi: hi}
	}
	end := func(r *timeRun) int { // the index of r's next entry
		if desc {
			return r.hi - 1
		}
		return r.lo
	}
	before := func(r, o *timeRun) bool { // r's next entry comes before o's
		rKey, rID := r.at(end(r))
		oKey, oID := o.at(end(o))
		return (cmp.Or(cmp.Compare(rKey, oKey), strings.Compare(rID, oID)) < 0) != desc
	}
	for limit != 0 {
		var next *timeRun
		for i := range runs {
			if r := &runs[i]; r.lo < r.hi && (next == nil || before(r, next)) {
				next = r
			}
		}
		if next == nil {
			return
		}
		at := end(next)
		if desc {
			next.hi--
		} else {
			next.lo++
		}
		ord := next.seg.byTime[at].ord
		if next.seg.isDead(ord) {
			continue
		}
		if !visit(next.seg, ord) {
			return
		}
		limit--
	}
}

func (sn *snapshot) scanAsc(from, to int64, visit func(seg *segment, ord uint32) bool) {
	sn.scanTime(from, to, false, -1, visit)
}

func (sn *snapshot) scanDesc(to int64, limit int, visit func(seg *segment, ord uint32) bool) {
	sn.scanTime(math.MinInt64, to, true, limit, visit)
}

// topicCount counts live docs carrying topic: the segments' counts summed.
func (sn *snapshot) topicCount(topic string) int {
	n := 0
	for _, seg := range sn.segs {
		n += seg.topics[topic]
	}
	return n
}

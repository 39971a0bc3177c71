package docstore

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/feature"
)

// This file implements the lock-free read path. The published snapshot is the
// store's only state: the write path (serialized by Store.mu) reads it exactly
// as readers do, builds its successor and publishes that through an atomic
// pointer. Readers load the snapshot once and never touch the store lock, and
// a reader holding an old snapshot keeps seeing the old epoch, segments merged
// away since included: nothing it points at is ever written again.
//
//	snapshot = { segs: immutable segments, oldest first; ov: docs written since the freeze }
//
// A segment is the compiled form of a fixed document set plus what later
// writes superseded in it: its dead ordinals and, per term, how many dead
// documents carry it. The indexes never change; tombstones and counts are
// replaced copy-on-write (withDead) in a new entry that shares the indexes.
// An id is live in at most one place — whoever writes it masks the copy below
// first — so the newest segment holding an id decides whether it is live.
//
// A commit window costs what it writes. Overlays form one lineage — each is
// built under Store.mu from the published one and published in turn — so a
// successor shares its predecessor's storage wherever it only adds: a term's
// overlay postings are append-only (setTermPost appends onto the
// predecessor's backing array, a held snapshot reads only its own length),
// delTermPost copies the slice it shortens, and cloneNextN copies, once per
// window, the two maps and the small slices that take ordered inserts.
//
// A freeze costs what the overlay holds: past overlayLimit writes the
// overlay's documents are compiled into a segment of their own (buildSegment
// over no segments) and what it masked is folded into the entries it touched.
// Then the tiers (mergeRun): a run of the newest segments, each at most
// tierRatio times what is gathered behind it, and any segment more than
// deadShare dead, is replaced, inline, by one segment at the newest place, so
// a document is rewritten O(log(store/overlayLimit)) times. The compactor and
// Open merge everything into the one index the v2 file holds.
//
// Exactness contract: every read through (segs, ov) is result-identical to
// the same read against one index over the live documents. Text: one heap and
// one θ over the overlay and a walkBase per segment, df = Σ segment df − dead
// − masked + overlay carriers, float order fixed by searchCompiled's
// canonical term order, ties (score desc, id asc). Vectors: segments share
// hyperplanes, so the union of their buckets less the dead is the monolith's
// bucket, and overlay vectors carry their signatures (feature.Extra). Time
// scans are k-way merges, counts are sums. TestSnapshotMatchesMonolithic and
// TestReadsMatchBruteForce pin it across freezes and both kinds of merge.

// segment is one immutable entry of the snapshot's list. cx, vec, sigs,
// byTime and timeOrd are fixed when buildSegment returns; dead, deadDF,
// topics and visuals are as of the last freeze and are replaced, never
// written, by withDead.
type segment struct {
	cx   *compiledIndex // text index and document table
	vec  *feature.LSH   // concept vectors: the documents' own slices
	sigs []uint64       // ordinal-major, lshTables a document: what vec files it under, carried through merges
	// byTime ascends by (CreatedAt, id); timeOrd[i] is byTime[i]'s ordinal, so
	// a scan tests liveness without an id lookup.
	byTime  []timeEntry
	timeOrd []uint32

	dead   []uint32       // ordinals superseded or deleted before the last freeze, ascending
	deadDF []int32        // term id -> dead carriers; nil while nothing is dead
	topics map[string]int // topic -> live documents carrying it
	// visuals counts live docs carrying visual features, so SearchVisual can
	// return before building any scratch state when there are none.
	visuals int
}

// The vector index's shape: hash tables, and hyperplane bits per table.
const lshTables, lshBits = 6, 10

// The segment list's constants; DESIGN.md §4c has the measurements behind them.
const (
	// overlayLimit: writes an overlay takes before it is compiled — where the
	// per-window copy of its containers meets a freeze's fixed cost (E25's
	// fixture needs it above 48).
	overlayLimit = 64
	// tierRatio: a segment joins the newest run while it is at most this many
	// times the run so far, so sizes at least double towards the oldest.
	tierRatio = 1
	// More than this share dead, a segment joins the next merge: at a half,
	// every document rewritten is paid for by one that died.
	deadShareNum, deadShareDen = 1, 2
)

func (seg *segment) live() int { return len(seg.cx.ids) - len(seg.dead) }

// isDead reports whether ord was dead at the last freeze.
func (seg *segment) isDead(ord uint32) bool {
	_, dead := slices.BinarySearch(seg.dead, ord)
	return dead
}

// liveDF is how many documents live at the last freeze carry the term tm
// locates in seg's index (the zero tm: none).
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
		if ord, held := segs[si].cx.ords[id]; held {
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

// buildSegment is the one builder of a segment: the live documents of segs (a
// document dead at the last freeze or masked by ov since drops out) and the
// documents ov carries, compiled together. A freeze calls it over no segments,
// a tier merge over its run and an empty overlay, Open and the tests' monolith
// over everything. Only ov's masked, byID and extras are read — extras only to
// reuse signatures putDoc computed; a carried document brings its own along.
// Documents are shared, never copied: nothing mutates a stored *Document.
func buildSegment(planes *feature.LSH, segs []*segment, ov *overlay) *segment {
	cx, remap := mergeIndex(segs, ov)
	seg := &segment{cx: cx, sigs: make([]uint64, lshTables*len(cx.ids)), topics: map[string]int{}}
	sign := func(ord uint32, v feature.Vector, known []uint64) {
		if at := lshTables * int(ord); known != nil {
			copy(seg.sigs[at:at+lshTables], known)
		} else {
			planes.AppendSignatures(seg.sigs[at:at:at+lshTables], v) // in place
		}
	}
	for si, src := range segs {
		for old, ord := range remap[si] {
			if v := src.cx.docs[old].Concept; ord != ordSentinel && len(v) > 0 {
				var known []uint64
				if src.sigs != nil { // nil: an index read from a snapshot file
					known = src.sigs[lshTables*old : lshTables*(old+1)]
				}
				sign(ord, v, known)
			}
		}
	}
	known := make(map[string][]uint64, len(ov.extras))
	for i := range ov.extras {
		known[ov.extras[i].ID] = ov.extras[i].Sigs
	}
	for id, e := range ov.byID {
		if len(e.doc.Concept) > 0 {
			sign(cx.ords[id], e.doc.Concept, known[id])
		}
	}
	vecs := make([]feature.Vector, len(cx.ids))
	seg.timeOrd = make([]uint32, len(cx.ids))
	for ord, d := range cx.docs {
		vecs[ord] = d.Concept
		seg.tally(d, 1)
		seg.timeOrd[ord] = uint32(ord)
	}
	seg.vec = planes.Filled(cx.ids, vecs, seg.sigs)
	// Ordinals ascend with ids, so (CreatedAt, ordinal) is (CreatedAt, id).
	slices.SortFunc(seg.timeOrd, func(a, b uint32) int {
		if c := cmp.Compare(cx.docs[a].CreatedAt, cx.docs[b].CreatedAt); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	seg.byTime = make([]timeEntry, len(cx.ids))
	for i, ord := range seg.timeOrd {
		seg.byTime[i] = timeEntry{key: cx.docs[ord].CreatedAt, id: cx.ids[ord]}
	}
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
	ns.dead = slices.Grow(slices.Clone(seg.dead), len(masked))
	ns.deadDF = append(make([]int32, 0, len(seg.cx.termList)), seg.deadDF...)[:len(seg.cx.termList)]
	ns.topics = maps.Clone(seg.topics)
	for _, ord := range masked {
		at, _ := slices.BinarySearch(ns.dead, ord)
		ns.dead = slices.Insert(ns.dead, at, ord)
		for _, ti := range seg.cx.fwd[ord] {
			ns.deadDF[ti]++
		}
		ns.tally(seg.cx.docs[ord], -1)
	}
	return &ns
}

// mergeRun splits segs (oldest first, as a freeze leaves them) into those to
// keep and the run to merge into one segment at the newest place: walking back
// from the newest, a segment joins while it is at most tierRatio times the
// live documents gathered so far, and any segment more than deadShare dead
// joins wherever it sits. Segments with nothing live are in neither. A run of
// one is no merge.
func mergeRun(segs []*segment) (keep, run []*segment) {
	size, chain := 0, true
	for i := len(segs) - 1; i >= 0; i-- {
		seg := segs[i]
		n := seg.live()
		chain = chain && (size == 0 || n <= tierRatio*size)
		switch {
		case n == 0:
		case chain || len(seg.dead)*deadShareDen > len(seg.cx.ids)*deadShareNum:
			run = append(run, seg)
			size += n
		default:
			keep = append(keep, seg)
		}
	}
	slices.Reverse(keep)
	slices.Reverse(run)
	if len(run) < 2 {
		return append(keep, run...), nil
	}
	return keep, run
}

func hasVisual(d *Document) bool {
	return len(d.ColorHist) > 0 || len(d.Texture) > 0
}

// timeEntry is one pair of a time index — a segment's and the overlay's are
// slices sorted by compare, so a scan merges them.
type timeEntry struct {
	key int64 // CreatedAt
	id  string
}

// compare orders by key, then id.
func (a timeEntry) compare(b timeEntry) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return strings.Compare(a.id, b.id)
}

// overlay is the immutable delta on top of the segments: one map per key
// space, documents and terms, and a few small slices. Every write to an id
// that is live in a segment masks it there; liveness of an overlay id is byID
// membership. The zero overlay (nil maps) is valid: lookups on nil maps read
// as empty.
type overlay struct {
	ops int // writes since the last freeze
	// masked is the tombstones since the last freeze: per segment, in the
	// snapshot's order, the ordinals of documents superseded or deleted,
	// ascending — one monotonic pointer passes them in a walk, a lookup by
	// ordinal is a binary search. Read through maskedIn: it may be shorter
	// than the segment list.
	masked   [][]uint32
	byID     map[string]ovDoc
	termPost map[string]ovTerm
	byTime   []timeEntry // ascending (key, id)
	// termDelta is the live term count minus the segments': overlay-only
	// terms, less segment terms whose every carrier is dead or masked and that
	// no overlay document carries. Kept by setTermPost/delTermPost/maskBase: a
	// staged document's terms are not in it (freezeLocked counts those).
	termDelta int
	// visualDelta is the same for documents with visual features: the
	// overlay's carriers less the masked ones.
	visualDelta int
	extras      []feature.Extra // byID's concept vectors, with norm and LSH signatures
}

// ovDoc is one document written since the freeze, its distinct terms,
// ascending (the slice is immutable), and its token count.
type ovDoc struct {
	doc    *Document
	terms  []termTF
	docLen int
}

// ovTerm is one term's overlay figures. post lists its carriers among the
// overlay's documents, in write order, so document frequency and overlay
// scoring are O(carriers); it is append-only along the lineage (see the file
// comment). maskedDF counts the masked documents that carry the term —
// charged from the forward index as an id is masked, so a query never
// intersects the tombstones with postings. segDF, once a writer has asked
// (known), is the segments' live carriers at the last freeze: the segments do
// not change within an overlay's lifetime, so the lineage sums them once a term.
type ovTerm struct {
	post     []ovPost
	maskedDF int
	segDF    int
	known    bool
}

// termTF is one distinct term of a document and its frequency there.
type termTF struct {
	term string
	tf   int
}

// termFreqs sorts tokens in place and returns the distinct terms, ascending,
// with their counts, in one exactly sized slice: a bulk window holds one per
// document until its merge.
func termFreqs(tokens []string) []termTF {
	slices.Sort(tokens)
	n := 0
	for i, t := range tokens {
		if i == 0 || t != tokens[i-1] {
			n++
		}
	}
	out := make([]termTF, 0, n)
	for i, t := range tokens {
		if i == 0 || t != tokens[i-1] {
			out = append(out, termTF{term: t})
		}
		out[len(out)-1].tf++
	}
	return out
}

// ovPost is one overlay posting: a carrier document and its term frequency.
type ovPost struct {
	id string
	tf int
}

// maskedIn returns the tombstones since the last freeze in segment si.
func (ov *overlay) maskedIn(si int) []uint32 {
	if si < len(ov.masked) {
		return ov.masked[si]
	}
	return nil
}

// cloneNextN copies the overlay's own containers for a commit window of n
// writes over nSegs segments — the two maps and the slices, each with room for
// the window — so publish cost is O(overlay + window) rather than O(overlay ×
// window). Posting slices, term lists and documents are shared.
func (ov *overlay) cloneNextN(n, nSegs int) *overlay {
	nv := &overlay{
		ops:         ov.ops + n,
		masked:      make([][]uint32, nSegs),
		byID:        make(map[string]ovDoc, len(ov.byID)+n),
		termPost:    make(map[string]ovTerm, len(ov.termPost)+8),
		byTime:      append(make([]timeEntry, 0, len(ov.byTime)+n), ov.byTime...),
		termDelta:   ov.termDelta,
		visualDelta: ov.visualDelta,
		extras:      append(make([]feature.Extra, 0, len(ov.extras)+n), ov.extras...),
	}
	for si := range nv.masked {
		nv.masked[si] = slices.Clone(ov.maskedIn(si))
	}
	maps.Copy(nv.byID, ov.byID)
	maps.Copy(nv.termPost, ov.termPost)
	return nv
}

// dropID removes any existing overlay entry for id (a replace or delete of a
// doc written since the freeze). The tombstones are left alone: masking
// records a fact about the segments, which do not change within an overlay's
// lifetime.
func (nv *overlay) dropID(id string, segs []*segment) {
	old, ok := nv.byID[id]
	if !ok {
		return
	}
	delete(nv.byID, id)
	for _, tt := range old.terms {
		nv.delTermPost(tt.term, id, segs)
	}
	if hasVisual(old.doc) {
		nv.visualDelta--
	}
	if i, ok := slices.BinarySearchFunc(nv.byTime, timeEntry{key: old.doc.CreatedAt, id: id}, timeEntry.compare); ok {
		nv.byTime = slices.Delete(nv.byTime, i, i+1)
	}
	nv.extras = slices.DeleteFunc(nv.extras, func(e feature.Extra) bool { return e.ID == id })
}

// stageDoc records d, whose tokens it sorts, as mergeIndex and buildSegment
// read it: live under its distinct terms, which it returns, its version in
// segs (the list nv sits on) masked. A window that overflows the overlay — a
// bulk load is one window of thousands — is only staged: no postings, no
// sorted insert, no LSH signatures. Callers own nv; with staged documents it
// is compiled, never published.
func (nv *overlay) stageDoc(d *Document, tokens []string, segs []*segment) []termTF {
	nv.deleteDoc(d.ID, segs)
	terms := termFreqs(tokens)
	nv.byID[d.ID] = ovDoc{doc: d, terms: terms, docLen: len(tokens)}
	if hasVisual(d) {
		nv.visualDelta++
	}
	return terms
}

// putDoc folds d into a freshly cloned (not yet published) overlay over segs
// that will be searched: stageDoc plus the read-side indexes, the vector
// signed against planes. Once published the overlay is immutable again.
func (nv *overlay) putDoc(d *Document, tokens []string, segs []*segment, planes *feature.LSH) {
	terms := nv.stageDoc(d, tokens, segs)
	at := timeEntry{key: d.CreatedAt, id: d.ID}
	i, _ := slices.BinarySearchFunc(nv.byTime, at, timeEntry.compare)
	nv.byTime = slices.Insert(nv.byTime, i, at)
	for _, tt := range terms {
		nv.setTermPost(tt.term, d.ID, tt.tf, segs)
	}
	if len(d.Concept) > 0 {
		nv.extras = append(nv.extras, feature.Extra{ID: d.ID, Vec: d.Concept, Norm: d.Concept.Norm(), Sigs: planes.Signatures(d.Concept)})
	}
}

// deleteDoc folds a delete into a freshly cloned overlay (see putDoc).
func (nv *overlay) deleteDoc(id string, segs []*segment) {
	nv.dropID(id, segs)
	nv.maskBase(id, segs)
}

// maskBase marks id dead in the segment where it is live, if any, and charges
// its distinct terms to maskedDF via the compiled forward index. Masking is
// idempotent per overlay lifetime — an id already masked was already charged.
func (nv *overlay) maskBase(id string, segs []*segment) {
	si, ord := holder(segs, id)
	if si < 0 || segs[si].isDead(ord) {
		return
	}
	at, masked := slices.BinarySearch(nv.masked[si], ord)
	if masked {
		return
	}
	nv.masked[si] = slices.Insert(nv.masked[si], at, ord)
	cx := segs[si].cx
	if hasVisual(cx.docs[ord]) {
		nv.visualDelta--
	}
	for _, ti := range cx.fwd[ord] {
		t := cx.termList[ti]
		e := nv.termPost[t]
		e.maskedDF++
		if len(e.post) == 0 && !e.segsLive(t, segs) {
			nv.termDelta-- // the term's last live carrier anywhere
		}
		nv.termPost[t] = e
	}
}

// segsLive reports whether t still has a live, unmasked carrier in segs,
// whose live carriers it sums on the first call and keeps in e.
func (e *ovTerm) segsLive(t string, segs []*segment) bool {
	if !e.known {
		e.known = true
		for _, seg := range segs {
			e.segDF += seg.liveDF(seg.cx.terms[t])
		}
	}
	return e.segDF > e.maskedDF
}

// setTermPost records id, which no posting of the term names (dropID has
// removed an earlier version's), carrying it with frequency tf: one append,
// onto the array the predecessor's slice ends in.
func (nv *overlay) setTermPost(t, id string, tf int, segs []*segment) {
	e := nv.termPost[t]
	if len(e.post) == 0 && !e.segsLive(t, segs) {
		nv.termDelta++ // first live carrier: a new term, or one fully masked
	}
	e.post = append(e.post, ovPost{id: id, tf: tf})
	nv.termPost[t] = e
}

// delTermPost removes id from the term's postings in a copy: the old array
// is a held snapshot's to read.
func (nv *overlay) delTermPost(t, id string, segs []*segment) {
	e := nv.termPost[t]
	i := slices.IndexFunc(e.post, func(p ovPost) bool { return p.id == id })
	if i < 0 {
		return
	}
	e.post = slices.Delete(slices.Clone(e.post), i, i+1)
	if len(e.post) == 0 && !e.segsLive(t, segs) {
		nv.termDelta--
	}
	if len(e.post) == 0 && e.maskedDF == 0 {
		delete(nv.termPost, t)
	} else {
		nv.termPost[t] = e
	}
}

// snapshot is one published epoch: an immutable view of the store, and all
// the state the store has. Its counts are sums over a handful of segments and
// an overlay delta: docCount, visualCount, and the live term count terms +
// ov.termDelta.
type snapshot struct {
	epoch  uint64
	planes *feature.LSH // empty: the hyperplanes every segment's index shares
	segs   []*segment   // oldest first
	terms  int          // distinct terms with a carrier live in segs
	ov     *overlay
}

func (sn *snapshot) docCount() int {
	n := len(sn.ov.byID)
	for si, seg := range sn.segs {
		n += seg.live() - len(sn.ov.maskedIn(si))
	}
	return n
}

func (sn *snapshot) visualCount() int {
	n := sn.ov.visualDelta
	for _, seg := range sn.segs {
		n += seg.visuals
	}
	return n
}

// isDead reports whether ordinal ord of segment si is dead: at the last
// freeze, or masked since.
func (sn *snapshot) isDead(si int, ord uint32) bool {
	if _, masked := slices.BinarySearch(sn.ov.maskedIn(si), ord); masked {
		return true
	}
	return sn.segs[si].isDead(ord)
}

// getDoc returns the live document for id, or nil: the overlay's, else the
// one in the newest segment holding the id, if it is live there. The pointer
// is snapshot-owned and must be cloned before leaving the store.
func (sn *snapshot) getDoc(id string) *Document {
	if e, ok := sn.ov.byID[id]; ok {
		return e.doc
	}
	if si, ord := holder(sn.segs, id); si >= 0 && !sn.isDead(si, ord) {
		return sn.segs[si].cx.docs[ord]
	}
	return nil
}

// searchTextRaw ranks against the merged index (block-max over each compiled
// segment, exact merge with the overlay), under this snapshot's own
// statistics or, with a non-nil gs, router-supplied ones (see GlobalStats).
// Returned hits share snapshot-owned documents — they are read-only for
// callers.
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
// ordinals/ids into hit documents. The scored slice is scratch-backed, so
// hits must be built before the scratch is reused.
func (sn *snapshot) assembleHits(kept []scored) []Hit {
	if len(kept) == 0 {
		return nil
	}
	h := topK{items: kept}
	hits := make([]Hit, 0, len(kept)) //lint:allow hotalloc the one documented cold-query allocation: the returned []Hit
	for _, r := range h.sorted() {
		var d *Document
		if r.ord >= 0 {
			d = sn.segs[r.seg].cx.docs[r.ord]
		} else {
			d = sn.ov.byID[r.id].doc
		}
		if d != nil {
			hits = append(hits, Hit{Doc: d, Score: r.score}) //lint:allow hotalloc appends into the sized cold-query allocation above; never grows
		}
	}
	return hits
}

// searchVectorRaw selects the k live documents most cosine-similar to q:
// what an LSH probe finds when that is at least k of them, otherwise — and
// always for a store of at most 256 — what the exact scan over the ordinals
// does. A candidate is a live segment document with a concept vector, or an
// overlay vector, scored from the norm kept beside it (a score has
// feature.Cosine's bits). The probe reads q's buckets in every segment —
// together, less the dead, the one bucket of an index over the live set —
// collects its distinct candidates before scoring any, and reads no bucket
// when their sizes already sum to fewer than k. A selection keeps the result:
// O(k) scratch even on an exact scan, unranked, like searchCompiled's.
func (sn *snapshot) searchVectorRaw(q feature.Vector, k int, sc *searchScratch) []scored {
	ov := sn.ov
	sel := selection{k: k, items: sc.vecPool[:0]}
	qn := q.Norm()
	push := func(cx *compiledIndex, si int, ord uint32) {
		sel.offer(scored{id: cx.ids[ord], seg: int32(si), ord: int32(ord), score: feature.CosineNorms(q, cx.docs[ord].Concept, qn, cx.cnorms[ord])})
	}
	var sigs []uint64
	probed := false
	if sn.docCount() > 256 {
		var buf [lshTables]uint64
		sigs = sn.planes.AppendSignatures(buf[:0], q)
		near := 0 // overlay vectors in one of q's buckets
		for i := range ov.extras {
			if ov.extras[i].Shares(sigs) {
				near++
			}
		}
		sizes := 0
		for _, seg := range sn.segs {
			sizes += seg.vec.BucketSizes(sigs)
		}
		sc.ords = sc.ords[:0]
		if k <= near+sizes {
			// Candidates are filed under segment offset + ordinal, so sc.ords
			// ascends from one segment to the next.
			sc.growSlots(sn.segs)
			for si, seg := range sn.segs {
				for t, sig := range sigs {
					for _, id := range seg.vec.Bucket(t, sig) {
						ord := seg.cx.ords[id] // the LSH indexes exactly cx's documents with a vector
						if at := sc.segOff[si] + ord; sc.slot[at] == 0 && !sn.isDead(si, ord) {
							sc.slot[at] = 1
							sc.ords = append(sc.ords, at)
						}
					}
				}
			}
			probed = k <= near+len(sc.ords)
		}
		si := 0
		for _, at := range sc.ords {
			for at >= sc.segOff[si]+uint32(len(sn.segs[si].cx.ids)) {
				si++
			}
			if sc.slot[at] = 0; probed {
				push(sn.segs[si].cx, si, at-sc.segOff[si])
			}
		}
	}
	if !probed {
		for si, seg := range sn.segs {
			clean := len(seg.dead)+len(ov.maskedIn(si)) == 0 // no tombstone to look for
			for ord, d := range seg.cx.docs {
				if len(d.Concept) > 0 && (clean || !sn.isDead(si, uint32(ord))) {
					push(seg.cx, si, uint32(ord))
				}
			}
		}
	}
	for i := range ov.extras {
		if e := &ov.extras[i]; !probed || e.Shares(sigs) {
			sel.offer(scored{id: e.ID, ord: -1, score: feature.CosineNorms(q, e.Vec, qn, e.Norm)})
		}
	}
	sc.vecPool = sel.best()
	return sc.vecPool
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
		sc.fileSlot(r, int32(i+1))
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

// timeRun is the part [lo, hi) of one time index a scan has yet to visit: a
// segment's (ords beside ents) or, seg -1, the overlay's.
type timeRun struct {
	seg    int
	ents   []timeEntry
	ords   []uint32
	lo, hi int
}

// scanTime visits live (key, id) pairs with key in [from, to], ascending or
// (desc) descending — a k-way merge of the segments' time indexes (a dead
// ordinal is passed: two binary searches, no id lookup) with the overlay's,
// from the heads or from the tails, yielding exactly the sequence one index
// over the live set would; a bounded scan costs what it visits. limit < 0
// means unbounded; it counts visits.
func (sn *snapshot) scanTime(from, to int64, desc bool, limit int, visit func(key int64, id string) bool) {
	runs := make([]timeRun, 0, len(sn.segs)+1)
	for si, seg := range sn.segs {
		runs = append(runs, timeRun{seg: si, ents: seg.byTime, ords: seg.timeOrd})
	}
	runs = append(runs, timeRun{seg: -1, ents: sn.ov.byTime})
	for i := range runs {
		r := &runs[i]
		r.lo = sort.Search(len(r.ents), func(i int) bool { return r.ents[i].key >= from })
		r.hi = max(r.lo, sort.Search(len(r.ents), func(i int) bool { return r.ents[i].key > to }))
	}
	end := func(r *timeRun) int { // the index of r's next entry
		if desc {
			return r.hi - 1
		}
		return r.lo
	}
	for limit != 0 {
		var next *timeRun
		for i := range runs {
			if r := &runs[i]; r.lo < r.hi && (next == nil || (r.ents[end(r)].compare(next.ents[end(next)]) < 0) != desc) {
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
		if next.seg >= 0 && sn.isDead(next.seg, next.ords[at]) {
			continue
		}
		if e := next.ents[at]; !visit(e.key, e.id) {
			return
		}
		limit--
	}
}

func (sn *snapshot) scanAsc(from, to int64, visit func(key int64, id string) bool) {
	sn.scanTime(from, to, false, -1, visit)
}

func (sn *snapshot) scanDesc(to int64, limit int, visit func(key int64, id string) bool) {
	sn.scanTime(math.MinInt64, to, true, limit, visit)
}

// topicCount counts live docs carrying topic: the segments' counts, less the
// masked carriers, plus overlay carriers.
func (sn *snapshot) topicCount(topic string) int {
	n := 0
	for si, seg := range sn.segs {
		n += seg.topics[topic]
		for _, ord := range sn.ov.maskedIn(si) {
			if slices.Contains(seg.cx.docs[ord].Topics, topic) {
				n--
			}
		}
	}
	for _, e := range sn.ov.byID {
		if slices.Contains(e.doc.Topics, topic) {
			n++
		}
	}
	return n
}

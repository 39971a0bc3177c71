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
// pointer. Readers load the snapshot once and never touch the store lock — a
// search can run entirely concurrently with writers, and a reader holding an
// old snapshot simply keeps seeing the old epoch.
//
// Publishing a full deep copy per write would make Put O(n). Instead a
// snapshot is a frozen base plus a small immutable overlay delta:
//
//	snapshot = { base: frozen state, ov: docs written since the freeze }
//
// A commit window costs what it writes. Overlays form one lineage — each is
// built under Store.mu from the published one and published in turn, never
// from an older one — so a successor shares its predecessor's storage
// wherever it only adds. A term's overlay postings are append-only:
// setTermPost appends onto the predecessor's backing array, a held snapshot
// reads only its own length, and the one successor is the only writer past
// it; delTermPost — a replace or delete of a document written since the
// freeze — copies the slice it shortens. The two maps (documents, terms) and
// three small slices (time index, vector list, tombstones) take inserts in
// order and removals, which an array shared with readers cannot, so
// cloneNextN copies them once per window.
//
// Once the overlay would pass overlayLimit a fresh base is published and the
// overlay resets — small-batch coalescing that amortizes the O(n) freeze over
// many writes. Every base is the last one merged with the overlay: mergeIndex
// for the text index and document table, state.next for the vector, time and
// topic indexes.
//
// Exactness contract: every read through (base, ov) must be result-identical
// to the same read against a monolithic index containing the live documents.
// The subtle cases are TF-IDF (document frequencies count base postings
// minus superseded ids plus overlay carriers, with the float expression
// order fixed by searchCompiled's canonical term order) and LSH bucket
// membership (overlay vectors carry precomputed per-table signatures so
// they join exactly the buckets an indexed vector would — see feature.Extra).
// TestSnapshotMatchesMonolithic pins this equivalence across freeze
// boundaries.

// state is a frozen base: the index structures over one fixed document set,
// immutable once next (or newState, for the empty one) returns it.
type state struct {
	cx     *compiledIndex // text index and document table
	vec    *feature.LSH   // concept vectors: the documents' own slices
	byTime []timeEntry    // ascending (CreatedAt, id)
	topics map[string]int // topic -> documents carrying it
	// visuals counts docs carrying visual features, so SearchVisual can
	// return before building any scratch state when there are none.
	visuals int
}

// The vector index's shape: hash tables, and hyperplane bits per table.
const lshTables, lshBits = 6, 10

// newState returns the empty base every store starts from; it fixes the LSH
// hyperplanes every later base shares.
func newState(opts Options) *state {
	return &state{
		cx:     &compiledIndex{},
		vec:    feature.NewLSH(opts.Seed, opts.ConceptDim, lshTables, lshBits),
		topics: map[string]int{},
	}
}

// next is the one builder of a base: prev without the documents ov masks,
// plus the documents ov carries, around cx, which must index exactly that
// set. The freeze, Open (the snapshot file's documents carried over the empty
// base, then the replayed log) and the tests' forced freeze all come here.
// Only ov's masked, byID and extras are read — all stageDoc maintains — and
// extras only to reuse signatures putDoc already computed. Documents are
// shared, never copied: the write path installs a private clone and nothing
// mutates a stored *Document. What is still O(base): the pass over the LSH
// buckets and the time-index merge.
func (prev *state) next(cx *compiledIndex, ov *overlay) *state {
	if len(ov.masked) == 0 && len(ov.byID) == 0 {
		return prev
	}
	st := &state{cx: cx, topics: maps.Clone(prev.topics), visuals: prev.visuals}
	tally := func(d *Document, by int) {
		for i, t := range d.Topics {
			if slices.Contains(d.Topics[:i], t) {
				continue // listed twice, carried once
			}
			if st.topics[t] += by; st.topics[t] == 0 {
				delete(st.topics, t)
			}
		}
		if hasVisual(d) {
			st.visuals += by
		}
	}
	dead := make(map[string]bool, len(ov.masked))
	drop := make([]timeEntry, 0, len(ov.masked))
	for _, ord := range ov.masked {
		d := prev.cx.docs[ord]
		dead[d.ID] = true
		tally(d, -1)
		drop = append(drop, timeEntry{key: d.CreatedAt, id: d.ID})
	}
	st.vec = prev.vec.CloneWithout(dead)
	sigs := make(map[string][]uint64, len(ov.extras))
	for i := range ov.extras {
		sigs[ov.extras[i].ID] = ov.extras[i].Sigs
	}
	add := make([]timeEntry, 0, len(ov.byID))
	for id, e := range ov.byID {
		d := e.doc
		if len(d.Concept) > 0 {
			sg := sigs[id]
			if sg == nil {
				sg = st.vec.Signatures(d.Concept)
			}
			st.vec.Insert(id, d.Concept, sg)
		}
		tally(d, 1)
		add = append(add, timeEntry{key: d.CreatedAt, id: id})
	}
	slices.SortFunc(drop, timeEntry.compare)
	slices.SortFunc(add, timeEntry.compare)
	st.byTime = make([]timeEntry, 0, len(prev.byTime)-len(drop)+len(add))
	for _, e := range prev.byTime {
		if len(drop) > 0 && e == drop[0] {
			drop = drop[1:]
			continue
		}
		for len(add) > 0 && add[0].compare(e) < 0 {
			st.byTime, add = append(st.byTime, add[0]), add[1:]
		}
		st.byTime = append(st.byTime, e)
	}
	st.byTime = append(st.byTime, add...)
	return st
}

// carry returns the delta that masks nothing and carries docs, as next reads
// it: how a snapshot file's documents join the empty base.
func carry(docs []*Document) *overlay {
	ov := &overlay{byID: make(map[string]ovDoc, len(docs))}
	for _, d := range docs {
		ov.byID[d.ID] = ovDoc{doc: d}
	}
	return ov
}

func hasVisual(d *Document) bool {
	return len(d.ColorHist) > 0 || len(d.Texture) > 0
}

// timeEntry is one pair of a time index — the base's and the overlay's are
// both slices sorted by compare, so a scan merges the two.
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

// overlay is the immutable delta on top of a frozen base: one map per key
// space, documents and terms, and three small slices. Every write to an id
// that exists in the base masks it (dead in the base); liveness of an overlay
// id is byID membership. The zero overlay (nil maps) is valid: lookups on nil
// maps read as empty.
type overlay struct {
	ops int // writes since the last freeze
	// masked is the base's tombstones: the ordinals of base documents
	// superseded or deleted, ascending — one monotonic pointer passes them in
	// the base walk, a lookup by ordinal is a binary search.
	masked   []uint32
	byID     map[string]ovDoc
	termPost map[string]ovTerm
	byTime   []timeEntry // ascending (key, id)
	// termDelta is the live term count minus the base's: overlay-only terms,
	// less base terms whose every carrier is masked and that no overlay
	// document carries. Kept by setTermPost/delTermPost/maskBase.
	termDelta int
	// visualDelta is the same for documents with visual features: the
	// overlay's carriers less the masked base ones.
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
// comment). maskedDF counts the masked ids that carry the term in the base —
// charged from the forward index as an id is masked, so a query never
// intersects the tombstones with postings.
type ovTerm struct {
	post     []ovPost
	maskedDF int
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

// cloneNextN copies the overlay's own containers for a commit window of n
// writes — the two maps and the three slices, each with room for the window —
// so publish cost is O(overlay + window) rather than O(overlay × window).
// Posting slices, term lists and documents are shared.
func (ov *overlay) cloneNextN(n int) *overlay {
	nv := &overlay{
		ops:         ov.ops + n,
		masked:      append(make([]uint32, 0, len(ov.masked)+n), ov.masked...),
		byID:        make(map[string]ovDoc, len(ov.byID)+n),
		termPost:    make(map[string]ovTerm, len(ov.termPost)+8),
		byTime:      append(make([]timeEntry, 0, len(ov.byTime)+n), ov.byTime...),
		termDelta:   ov.termDelta,
		visualDelta: ov.visualDelta,
		extras:      append(make([]feature.Extra, 0, len(ov.extras)+n), ov.extras...),
	}
	maps.Copy(nv.byID, ov.byID)
	maps.Copy(nv.termPost, ov.termPost)
	return nv
}

// dropID removes any existing overlay entry for id (a replace or delete of a
// doc written since the freeze). The tombstones are left alone: masking
// records a fact about the base, which does not change within an overlay's
// lifetime.
func (nv *overlay) dropID(id string, cx *compiledIndex) {
	old, ok := nv.byID[id]
	if !ok {
		return
	}
	delete(nv.byID, id)
	for _, tt := range old.terms {
		nv.delTermPost(tt.term, id, cx)
	}
	if hasVisual(old.doc) {
		nv.visualDelta--
	}
	if i, ok := slices.BinarySearchFunc(nv.byTime, timeEntry{key: old.doc.CreatedAt, id: id}, timeEntry.compare); ok {
		nv.byTime = slices.Delete(nv.byTime, i, i+1)
	}
	nv.extras = slices.DeleteFunc(nv.extras, func(e feature.Extra) bool { return e.ID == id })
}

// stageDoc records d, whose tokens it sorts, as mergeIndex and state.next
// read it: live under its distinct terms, which it returns, its version in cx
// (the index nv sits on) masked. A window that overflows the overlay — a bulk
// load is one window of thousands — is only staged: no postings, no sorted
// insert, no LSH signatures. Callers own nv; with staged documents it is
// merged, never published.
func (nv *overlay) stageDoc(d *Document, tokens []string, cx *compiledIndex) []termTF {
	nv.deleteDoc(d.ID, cx)
	terms := termFreqs(tokens)
	nv.byID[d.ID] = ovDoc{doc: d, terms: terms, docLen: len(tokens)}
	if hasVisual(d) {
		nv.visualDelta++
	}
	return terms
}

// putDoc folds d into a freshly cloned (not yet published) overlay over base
// that will be searched: stageDoc plus the read-side indexes. Once published
// the overlay is immutable again.
func (nv *overlay) putDoc(d *Document, tokens []string, base *state) {
	terms := nv.stageDoc(d, tokens, base.cx)
	at := timeEntry{key: d.CreatedAt, id: d.ID}
	i, _ := slices.BinarySearchFunc(nv.byTime, at, timeEntry.compare)
	nv.byTime = slices.Insert(nv.byTime, i, at)
	for _, tt := range terms {
		nv.setTermPost(tt.term, d.ID, tt.tf, base.cx)
	}
	if len(d.Concept) > 0 {
		nv.extras = append(nv.extras, feature.Extra{ID: d.ID, Vec: d.Concept, Norm: d.Concept.Norm(), Sigs: base.vec.Signatures(d.Concept)})
	}
}

// deleteDoc folds a delete into a freshly cloned overlay (see putDoc).
func (nv *overlay) deleteDoc(id string, cx *compiledIndex) {
	nv.dropID(id, cx)
	nv.maskBase(id, cx)
}

// isMasked reports whether base ordinal ord is dead.
func (ov *overlay) isMasked(ord uint32) bool {
	_, dead := slices.BinarySearch(ov.masked, ord)
	return dead
}

// maskBase marks id dead in the base, when the base holds it, and charges
// its distinct terms to maskedDF via the compiled forward index. Masking is
// idempotent per overlay lifetime — an id already masked was already charged.
func (nv *overlay) maskBase(id string, cx *compiledIndex) {
	ord, inBase := cx.ords[id]
	if !inBase {
		return
	}
	at, dead := slices.BinarySearch(nv.masked, ord)
	if dead {
		return
	}
	nv.masked = slices.Insert(nv.masked, at, ord)
	if hasVisual(cx.docs[ord]) {
		nv.visualDelta--
	}
	for _, ti := range cx.fwd[ord] {
		t := cx.termList[ti]
		e := nv.termPost[t]
		e.maskedDF++
		nv.termPost[t] = e
		if len(e.post) == 0 && !e.baseLive(t, cx) {
			nv.termDelta-- // the term's last live carrier anywhere
		}
	}
}

// baseLive reports whether t still has an unmasked carrier in the base.
func (e ovTerm) baseLive(t string, cx *compiledIndex) bool {
	return int(cx.terms[t].df) > e.maskedDF
}

// setTermPost records id, which no posting of the term names (dropID has
// removed an earlier version's), carrying it with frequency tf: one append,
// onto the array the predecessor's slice ends in.
func (nv *overlay) setTermPost(t, id string, tf int, cx *compiledIndex) {
	e := nv.termPost[t]
	if len(e.post) == 0 && !e.baseLive(t, cx) {
		nv.termDelta++ // first live carrier: a new term, or one fully masked
	}
	e.post = append(e.post, ovPost{id: id, tf: tf})
	nv.termPost[t] = e
}

// delTermPost removes id from the term's postings in a copy: the old array
// is a held snapshot's to read.
func (nv *overlay) delTermPost(t, id string, cx *compiledIndex) {
	e := nv.termPost[t]
	i := slices.IndexFunc(e.post, func(p ovPost) bool { return p.id == id })
	if i < 0 {
		return
	}
	e.post = slices.Delete(slices.Clone(e.post), i, i+1)
	if len(e.post) == 0 && !e.baseLive(t, cx) {
		nv.termDelta--
	}
	if len(e.post) == 0 && e.maskedDF == 0 {
		delete(nv.termPost, t)
	} else {
		nv.termPost[t] = e
	}
}

// overlayLimit bounds overlay size before a freeze: large enough to
// amortize the O(n) deep clone, small enough to keep the per-query overlay
// adjustments cheap.
func overlayLimit(baseDocs int) int {
	return min(max(baseDocs/8, 64), 512)
}

// snapshot is one published epoch: an immutable view of the store, and all
// the state the store has. Its counts are O(1) sums of a base figure and an
// overlay delta: docCount, visualCount, and the live term count
// len(base.cx.termList) + ov.termDelta.
type snapshot struct {
	epoch uint64
	base  *state
	ov    *overlay
}

func (sn *snapshot) docCount() int {
	return len(sn.base.cx.ids) - len(sn.ov.masked) + len(sn.ov.byID)
}

func (sn *snapshot) visualCount() int { return sn.base.visuals + sn.ov.visualDelta }

// getDoc returns the live document for id, or nil. The pointer is
// snapshot-owned and must be cloned before leaving the store.
func (sn *snapshot) getDoc(id string) *Document {
	if e, ok := sn.ov.byID[id]; ok {
		return e.doc
	}
	if ord, ok := sn.base.cx.ords[id]; ok && !sn.ov.isMasked(ord) {
		return sn.base.cx.docs[ord]
	}
	return nil
}

// searchTextRaw ranks against the merged index (block-max over the
// compiled base, exact merge with the overlay), under this snapshot's own
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
	h := topK[scored]{better: scoredBetter, items: kept}
	hits := make([]Hit, 0, len(kept)) //lint:allow hotalloc the one documented cold-query allocation: the returned []Hit
	for _, r := range h.sorted() {
		var d *Document
		if r.ord >= 0 {
			d = sn.base.cx.docs[r.ord]
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
// does. A candidate is an unmasked base document with a concept vector, or an
// overlay vector, scored from the norm kept beside it (a score has
// feature.Cosine's bits). The probe collects its distinct candidates before
// scoring any, and reads no bucket when their sizes already sum to fewer than
// k. The result is scratch-backed and unranked, like searchCompiled's.
func (sn *snapshot) searchVectorRaw(q feature.Vector, k int, sc *searchScratch) []scored {
	cx, ov, lsh := sn.base.cx, sn.ov, sn.base.vec
	h := topK[scored]{k: k, better: scoredBetter, items: sc.vecHeap[:0]}
	qn := q.Norm()
	base := func(ord uint32) {
		h.push(scored{id: cx.ids[ord], ord: int32(ord), score: feature.CosineNorms(q, cx.docs[ord].Concept, qn, cx.cnorms[ord])})
	}
	var sigs []uint64
	probed := false
	if sn.docCount() > 256 {
		var buf [lshTables]uint64
		sigs = lsh.AppendSignatures(buf[:0], q)
		near := 0 // overlay vectors in one of q's buckets
		for i := range ov.extras {
			if ov.extras[i].Shares(sigs) {
				near++
			}
		}
		sc.ords = sc.ords[:0]
		if k <= near+lsh.BucketSizes(sigs) {
			sc.growSlots(len(cx.ids))
			for t, sig := range sigs {
				for _, id := range lsh.Bucket(t, sig) {
					ord := cx.ords[id] // the LSH indexes exactly cx's documents with a vector
					if sc.slot[ord] == 0 && !ov.isMasked(ord) {
						sc.slot[ord] = 1
						sc.ords = append(sc.ords, ord)
					}
				}
			}
			probed = k <= near+len(sc.ords)
		}
		for _, ord := range sc.ords {
			if sc.slot[ord] = 0; probed {
				base(ord)
			}
		}
	}
	if !probed {
		for ord, d := range cx.docs {
			if len(d.Concept) > 0 && !ov.isMasked(uint32(ord)) {
				base(uint32(ord))
			}
		}
	}
	for i := range ov.extras {
		if e := &ov.extras[i]; !probed || e.Shares(sigs) {
			h.push(scored{id: e.ID, ord: -1, score: feature.CosineNorms(q, e.Vec, qn, e.Norm)})
		}
	}
	sc.vecHeap = h.items[:0]
	return h.items
}

// searchHybridRaw ranks by (1-alpha)*text + alpha*vector over the union of
// two pools — the max(4k, 32) best text hits and as many vector hits — each
// score first divided by its pool's best (a pool whose best is not positive
// contributes zeros; a document outside a pool scores zero there). The text
// pool is filed by ordinal, each vector hit takes its text score from there,
// the text hits left follow, and a k-heap keeps the answer: neither pool is
// ranked or keyed by id, nothing is sorted but the k kept.
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
	sc.growSlots(len(sn.base.cx.ids))
	for i, r := range text {
		sc.fileSlot(r, int32(i+1))
	}
	h := topK[scored]{k: k, better: scoredBetter, items: sc.outHeap[:0]}
	for _, r := range vec {
		ts := 0.0
		if at := sc.takeSlot(r); at != 0 {
			ts = share(text[at-1].score, tmax)
		}
		r.score = blend(ts, share(r.score, vmax))
		h.push(r)
	}
	for _, r := range text {
		if sc.takeSlot(r) != 0 {
			r.score = blend(share(r.score, tmax), 0)
			h.push(r)
		}
	}
	sc.outHeap = h.items[:0]
	return sn.assembleHits(h.items)
}

// timeRange returns the entries of a time index with key in [from, to].
func timeRange(ents []timeEntry, from, to int64) []timeEntry {
	lo := sort.Search(len(ents), func(i int) bool { return ents[i].key >= from })
	hi := sort.Search(len(ents), func(i int) bool { return ents[i].key > to })
	return ents[lo:max(lo, hi)]
}

// baseDead reports whether id, a document of the base, is masked.
func (sn *snapshot) baseDead(id string) bool {
	return len(sn.ov.masked) > 0 && sn.ov.isMasked(sn.base.cx.ords[id])
}

// scanAsc visits live (key, id) pairs with key in [from, to] ascending — an
// ordered merge of the base's time index (skipping masked ids) with the
// overlay's, yielding exactly the sequence one index over the live set would.
func (sn *snapshot) scanAsc(from, to int64, visit func(key int64, id string) bool) {
	bt, ot := timeRange(sn.base.byTime, from, to), timeRange(sn.ov.byTime, from, to)
	for len(bt) > 0 || len(ot) > 0 {
		var e timeEntry
		if len(ot) == 0 || (len(bt) > 0 && bt[0].compare(ot[0]) < 0) {
			e, bt = bt[0], bt[1:]
			if sn.baseDead(e.id) {
				continue
			}
		} else {
			e, ot = ot[0], ot[1:]
		}
		if !visit(e.key, e.id) {
			return
		}
	}
}

// scanDesc is scanAsc from the other end: live pairs with key <= to,
// descending, walked from the tails of the two indexes so a bounded scan
// costs what it visits. limit < 0 means unbounded; it counts visits.
func (sn *snapshot) scanDesc(to int64, limit int, visit func(key int64, id string) bool) {
	bt, ot := timeRange(sn.base.byTime, math.MinInt64, to), timeRange(sn.ov.byTime, math.MinInt64, to)
	for limit != 0 && (len(bt) > 0 || len(ot) > 0) {
		var e timeEntry
		if b, o := len(bt)-1, len(ot)-1; o < 0 || (b >= 0 && bt[b].compare(ot[o]) > 0) {
			e, bt = bt[b], bt[:b]
			if sn.baseDead(e.id) {
				continue
			}
		} else {
			e, ot = ot[o], ot[:o]
		}
		if !visit(e.key, e.id) {
			return
		}
		limit--
	}
}

// topicCount counts live docs carrying topic: the base's count, less its
// masked carriers, plus overlay carriers.
func (sn *snapshot) topicCount(topic string) int {
	cx := sn.base.cx
	n := sn.base.topics[topic]
	for _, ord := range sn.ov.masked {
		if slices.Contains(cx.docs[ord].Topics, topic) {
			n--
		}
	}
	for _, e := range sn.ov.byID {
		if slices.Contains(e.doc.Topics, topic) {
			n++
		}
	}
	return n
}

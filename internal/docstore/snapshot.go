package docstore

import (
	"slices"
	"sort"

	"repro/internal/feature"
)

// This file implements the lock-free read path. The write path (Put /
// Delete / Compact, serialized by Store.mu) maintains one mutable "master"
// state and, after every mutation, publishes an immutable snapshot through
// an atomic pointer. Readers load the snapshot once and never touch the
// store lock — a search can run entirely concurrently with writers, and a
// reader holding an old snapshot simply keeps seeing the old epoch.
//
// Publishing a full deep copy per write would make Put O(n). Instead a
// snapshot is a frozen base plus a small immutable overlay delta:
//
//	snapshot = { base: frozen state, ov: docs written since the freeze }
//
// Each commit window clones the (small) overlay once and republishes; once
// the overlay would pass overlayLimit a fresh base is published and the
// overlay resets — small-batch coalescing that amortizes the O(n) freeze over
// many writes. The new base's text index is the last one's merged with the
// overlay (mergeIndex): base plus overlay are the whole text index, the master
// keeps none. Its LSH, skiplist and topics are still cloned from the master.
//
// Exactness contract: every read through (base, ov) must be result-identical
// to the same read against a monolithic index containing the live documents.
// The subtle cases are TF-IDF (document frequencies count base postings
// minus superseded ids plus overlay carriers, with the float expression
// order fixed by searchCompiled's canonical term order) and LSH bucket
// membership (overlay vectors carry precomputed per-table signatures so
// they join exactly the buckets an indexed vector would — see
// feature.Extra). TestSnapshotMatchesMonolithic pins this equivalence
// across freeze boundaries.

// state bundles the index structures. The master state is guarded by
// Store.mu; frozen copies inside snapshots are immutable. Only the master has
// docs (the committer's liveness check, the version a put displaces); only a
// frozen base has cx, which is both its text index and its document table.
type state struct {
	docs    map[string]*Document
	cx      *compiledIndex
	vec     *feature.LSH
	byTime  *skiplist
	byTopic map[string]map[string]bool
	// visuals counts docs carrying visual features, so SearchVisual can
	// return before building any scratch state when there are none.
	visuals int
}

func newState(opts Options) *state {
	return &state{
		docs:    make(map[string]*Document),
		vec:     feature.NewLSH(opts.Seed, opts.ConceptDim, opts.LSHTables, opts.LSHBits),
		byTime:  newSkiplist(opts.Seed + 1),
		byTopic: make(map[string]map[string]bool),
	}
}

// applyPut updates in-memory state only (no WAL, no snapshot publish).
func (st *state) applyPut(d *Document) {
	if old, ok := st.docs[d.ID]; ok {
		st.byTime.remove(old.CreatedAt, old.ID)
		st.removeTopics(old)
		if hasVisual(old) {
			st.visuals--
		}
	}
	st.docs[d.ID] = d
	for _, t := range d.Topics {
		set, ok := st.byTopic[t]
		if !ok {
			set = make(map[string]bool)
			st.byTopic[t] = set
		}
		set[d.ID] = true
	}
	if len(d.Concept) > 0 {
		st.vec.Put(d.ID, d.Concept)
	} else {
		st.vec.Delete(d.ID)
	}
	st.byTime.insert(d.CreatedAt, d.ID)
	if hasVisual(d) {
		st.visuals++
	}
}

func (st *state) applyDelete(id string) {
	d, ok := st.docs[id]
	if !ok {
		return
	}
	delete(st.docs, id)
	st.vec.Delete(id)
	st.byTime.remove(d.CreatedAt, id)
	st.removeTopics(d)
	if hasVisual(d) {
		st.visuals--
	}
}

func (st *state) removeTopics(d *Document) {
	for _, t := range d.Topics {
		if set, ok := st.byTopic[t]; ok {
			delete(set, d.ID)
			if len(set) == 0 {
				delete(st.byTopic, t)
			}
		}
	}
}

// freeze copies the master's index structures into an immutable base around
// cx, which must hold exactly the master's live documents. Documents
// themselves are shared: the write path never mutates a stored *Document in
// place (Put installs a fresh clone), so pointers are safe across epochs.
func (st *state) freeze(cx *compiledIndex) *state {
	topics := make(map[string]map[string]bool, len(st.byTopic))
	for t, set := range st.byTopic {
		ns := make(map[string]bool, len(set))
		for id := range set {
			ns[id] = true
		}
		topics[t] = ns
	}
	return &state{
		cx:      cx,
		vec:     st.vec.Clone(),
		byTime:  st.byTime.clone(),
		byTopic: topics,
		visuals: st.visuals,
	}
}

func hasVisual(d *Document) bool {
	return len(d.ColorHist) > 0 || len(d.Texture) > 0
}

// timeEntry mirrors one skiplist pair for the overlay's sorted time slice.
type timeEntry struct {
	key int64
	id  string
}

// overlay is the immutable delta on top of a frozen base. Every write to an
// id that exists in the base marks it masked (dead in the base); liveness of
// an overlay id is byID membership. The zero overlay (nil maps) is valid:
// lookups on nil maps read as empty.
type overlay struct {
	ops    int             // writes since the last freeze
	masked map[string]bool // base ids superseded or deleted
	// maskedDF counts, per term, how many masked ids carry the term in the
	// frozen base — maintained incrementally from the compiled forward
	// index when an id is masked, so the query path computes live document
	// frequencies in O(1) per term instead of intersecting the masked set
	// with postings.
	maskedDF map[string]int
	byID     map[string]*Document
	byTime   []timeEntry         // ascending (key, id)
	terms    map[string][]termTF // docID -> distinct terms, ascending (inner slices immutable)
	docLen   map[string]int
	// termPost inverts terms (term -> carriers sorted by docID) so per-term
	// document frequency and overlay scoring are O(carriers), not
	// O(overlay docs). Slices are copy-on-write: cloneNextN shares them, and
	// any write replaces the touched term's slice with a fresh copy.
	termPost map[string][]ovPost
	// termDelta is the live term count minus the base's: overlay-only terms,
	// less base terms whose every carrier is masked and that no overlay
	// document carries. Kept by setTermPost/delTermPost/maskBase.
	termDelta int
	extras    []feature.Extra // overlay concept vectors with precomputed signatures
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

// cloneNextN deep-copies the overlay's own containers for a commit window of
// n writes: ONE copy absorbs the whole window, so publish cost is
// O(overlay + window) rather than O(overlay × window). Inner term slices and
// documents are immutable after insertion and shared.
func (ov *overlay) cloneNextN(n int) *overlay {
	nv := &overlay{
		ops:       ov.ops + n,
		masked:    make(map[string]bool, len(ov.masked)+1),
		maskedDF:  make(map[string]int, len(ov.maskedDF)+8),
		byID:      make(map[string]*Document, len(ov.byID)+1),
		byTime:    append([]timeEntry(nil), ov.byTime...),
		terms:     make(map[string][]termTF, len(ov.terms)+1),
		docLen:    make(map[string]int, len(ov.docLen)+1),
		termPost:  make(map[string][]ovPost, len(ov.termPost)+8),
		termDelta: ov.termDelta,
		extras:    append([]feature.Extra(nil), ov.extras...),
	}
	for id := range ov.masked {
		nv.masked[id] = true
	}
	for t, c := range ov.maskedDF {
		nv.maskedDF[t] = c
	}
	for id, d := range ov.byID {
		nv.byID[id] = d
	}
	for id, m := range ov.terms {
		nv.terms[id] = m
	}
	for id, l := range ov.docLen {
		nv.docLen[id] = l
	}
	for t, p := range ov.termPost {
		nv.termPost[t] = p
	}
	return nv
}

// dropID removes any existing overlay entry for id (a replace or delete of a
// doc written since the freeze). The masked set is left alone: masking
// records a fact about the base, which does not change within an overlay's
// lifetime.
func (nv *overlay) dropID(id string, cx *compiledIndex) {
	old, ok := nv.byID[id]
	if !ok {
		return
	}
	delete(nv.byID, id)
	for _, tt := range nv.terms[id] {
		nv.delTermPost(tt.term, id, cx)
	}
	delete(nv.terms, id)
	delete(nv.docLen, id)
	nv.removeTime(old.CreatedAt, id)
	for i := range nv.extras {
		if nv.extras[i].ID == id {
			nv.extras = append(nv.extras[:i], nv.extras[i+1:]...)
			break
		}
	}
}

func (nv *overlay) insertTime(key int64, id string) {
	i := sort.Search(len(nv.byTime), func(i int) bool {
		e := nv.byTime[i]
		return !skipLess(e.key, e.id, key, id)
	})
	nv.byTime = append(nv.byTime, timeEntry{})
	copy(nv.byTime[i+1:], nv.byTime[i:])
	nv.byTime[i] = timeEntry{key: key, id: id}
}

func (nv *overlay) removeTime(key int64, id string) {
	i := sort.Search(len(nv.byTime), func(i int) bool {
		e := nv.byTime[i]
		return !skipLess(e.key, e.id, key, id)
	})
	if i < len(nv.byTime) && nv.byTime[i].key == key && nv.byTime[i].id == id {
		nv.byTime = append(nv.byTime[:i], nv.byTime[i+1:]...)
	}
}

// stageDoc records d, whose tokens it sorts, as mergeIndex reads it: live
// under its distinct terms, its version in cx (the index nv sits on) masked.
// A window that overflows the overlay — a bulk load is one window of
// thousands — is only staged: no per-posting copy-on-write, no sorted
// insert. Callers own nv; with staged documents it is merged, never published.
func (nv *overlay) stageDoc(d *Document, tokens []string, cx *compiledIndex) {
	nv.dropID(d.ID, cx)
	nv.maskBase(d.ID, cx)
	nv.byID[d.ID] = d
	nv.docLen[d.ID] = len(tokens)
	nv.terms[d.ID] = termFreqs(tokens)
}

// putDoc folds d into a freshly cloned (not yet published) overlay that will
// be searched: stageDoc plus the read-side indexes. Once published the
// overlay is immutable again. sigs are d.Concept's per-table LSH signatures
// (nil when the doc has no concept vector).
func (nv *overlay) putDoc(d *Document, tokens []string, sigs []uint64, cx *compiledIndex) {
	nv.stageDoc(d, tokens, cx)
	nv.insertTime(d.CreatedAt, d.ID)
	for _, tt := range nv.terms[d.ID] {
		nv.setTermPost(tt.term, d.ID, tt.tf, cx)
	}
	if len(d.Concept) > 0 {
		nv.extras = append(nv.extras, feature.Extra{ID: d.ID, Vec: d.Concept, Sigs: sigs})
	}
}

// deleteDoc folds a delete into a freshly cloned overlay (see putDoc).
func (nv *overlay) deleteDoc(id string, cx *compiledIndex) {
	nv.dropID(id, cx)
	nv.maskBase(id, cx)
}

// maskBase marks id dead in the base, when the base holds it, and charges
// its distinct terms to maskedDF via the compiled forward index. Masking is
// idempotent per overlay lifetime — an id already masked was already charged.
func (nv *overlay) maskBase(id string, cx *compiledIndex) {
	ord, inBase := cx.ords[id]
	if !inBase || nv.masked[id] {
		return
	}
	nv.masked[id] = true
	for _, ti := range cx.fwd[ord] {
		t := cx.termList[ti]
		nv.maskedDF[t]++
		if !nv.baseLive(t, cx) && len(nv.termPost[t]) == 0 {
			nv.termDelta-- // the term's last live carrier anywhere
		}
	}
}

// baseLive reports whether t still has an unmasked carrier in the base.
func (nv *overlay) baseLive(t string, cx *compiledIndex) bool {
	return int(cx.terms[t].df) > nv.maskedDF[t]
}

// setTermPost records id carrying term with frequency tf, copying the
// term's posting slice so shared predecessors stay immutable.
func (nv *overlay) setTermPost(t, id string, tf int, cx *compiledIndex) {
	p := nv.termPost[t]
	if len(p) == 0 && !nv.baseLive(t, cx) {
		nv.termDelta++ // first live carrier: a new term, or one fully masked
	}
	i := sort.Search(len(p), func(i int) bool { return p[i].id >= id })
	np := make([]ovPost, 0, len(p)+1)
	np = append(np, p[:i]...)
	np = append(np, ovPost{id: id, tf: tf})
	if i < len(p) && p[i].id == id {
		i++ // replace the existing entry
	}
	np = append(np, p[i:]...)
	nv.termPost[t] = np
}

// delTermPost removes id from term's posting slice, same copy-on-write
// discipline.
func (nv *overlay) delTermPost(t, id string, cx *compiledIndex) {
	p, ok := nv.termPost[t]
	if !ok {
		return
	}
	i := sort.Search(len(p), func(i int) bool { return p[i].id >= id })
	if i >= len(p) || p[i].id != id {
		return
	}
	if len(p) == 1 {
		delete(nv.termPost, t)
		if !nv.baseLive(t, cx) {
			nv.termDelta--
		}
		return
	}
	np := make([]ovPost, 0, len(p)-1)
	np = append(np, p[:i]...)
	np = append(np, p[i+1:]...)
	nv.termPost[t] = np
}

// postingsFor returns term's overlay postings, sorted by document ID. The
// slice is shared and read-only.
func (ov *overlay) postingsFor(term string) []ovPost {
	return ov.termPost[term]
}

// df returns how many overlay docs carry term.
func (ov *overlay) df(term string) int {
	return len(ov.termPost[term])
}

// overlayLimit bounds overlay size before a freeze: large enough to
// amortize the O(n) deep clone, small enough to keep the per-query overlay
// adjustments cheap.
func overlayLimit(baseDocs int) int {
	lim := baseDocs / 8
	if lim < 64 {
		lim = 64
	}
	if lim > 512 {
		lim = 512
	}
	return lim
}

// snapshot is one published epoch: an immutable view of the store.
// docCount/visualCount are copied from the master at publish time so Stats
// and search normalization need no reconstruction; the live term count is
// len(base.cx.termList) + ov.termDelta.
type snapshot struct {
	epoch       uint64
	base        *state
	ov          *overlay
	docCount    int
	visualCount int
}

// getDoc returns the live document for id, or nil. The pointer is
// snapshot-owned and must be cloned before leaving the store.
func (sn *snapshot) getDoc(id string) *Document {
	if d, ok := sn.ov.byID[id]; ok {
		return d
	}
	if ord, ok := sn.base.cx.ords[id]; ok && !sn.ov.masked[id] {
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

// assembleHits resolves ranked ordinals/ids into hit documents. The scored
// slice is scratch-backed, so hits must be built before the scratch is
// reused.
func (sn *snapshot) assembleHits(res []scored) []Hit {
	if len(res) == 0 {
		return nil
	}
	hits := make([]Hit, 0, len(res)) //lint:allow hotalloc the one documented cold-query allocation: the returned []Hit
	for _, r := range res {
		var d *Document
		if r.ord >= 0 {
			d = sn.base.cx.docs[r.ord]
		} else {
			d = sn.ov.byID[r.id]
		}
		if d != nil {
			hits = append(hits, Hit{Doc: d, Score: r.score}) //lint:allow hotalloc appends into the sized cold-query allocation above; never grows
		}
	}
	return hits
}

// searchVectorRaw mirrors the monolithic searchVector: exact scan for small
// stores, LSH with scan fallback otherwise. Masked base ids are excluded
// before top-k selection and overlay vectors join via their precomputed
// signatures, so the candidate set matches a monolithic index exactly.
func (sn *snapshot) searchVectorRaw(concept feature.Vector, k int) []Hit {
	excluded := func(id string) bool { return sn.ov.masked[id] }
	var cands []feature.Candidate
	if sn.docCount <= 256 {
		cands = sn.base.vec.ScanWith(concept, k, sn.ov.extras, excluded)
	} else {
		cands = sn.base.vec.QueryWith(concept, k, sn.ov.extras, excluded)
		if len(cands) < k {
			cands = sn.base.vec.ScanWith(concept, k, sn.ov.extras, excluded)
		}
	}
	hits := make([]Hit, 0, len(cands))
	for _, c := range cands {
		if d := sn.getDoc(c.ID); d != nil {
			hits = append(hits, Hit{Doc: d, Score: c.Score})
		}
	}
	return hits
}

// scanAsc visits live (key, id) pairs with key in [from, to] ascending — an
// ordered merge of the base skiplist (skipping masked ids) with the
// overlay's sorted slice, yielding exactly the sequence a monolithic
// skiplist over the live set would.
func (sn *snapshot) scanAsc(from, to int64, visit func(key int64, id string) bool) {
	ents := sn.ov.byTime
	oi := 0
	for oi < len(ents) && ents[oi].key < from {
		oi++
	}
	stopped := false
	sn.base.byTime.scanRange(from, to, func(k int64, id string) bool {
		for oi < len(ents) && ents[oi].key <= to && skipLess(ents[oi].key, ents[oi].id, k, id) {
			if !visit(ents[oi].key, ents[oi].id) {
				stopped = true
				return false
			}
			oi++
		}
		if sn.ov.masked[id] {
			return true
		}
		if !visit(k, id) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for oi < len(ents) && ents[oi].key <= to {
		if !visit(ents[oi].key, ents[oi].id) {
			return
		}
		oi++
	}
}

// scanDesc visits live pairs with key <= max in descending order,
// materializing the ascending merge like skiplist.scanDescending. limit < 0
// means unbounded; like the skiplist, it counts visits.
func (sn *snapshot) scanDesc(max int64, limit int, visit func(key int64, id string) bool) {
	var all []timeEntry
	sn.scanAsc(-1<<63, max, func(k int64, id string) bool {
		all = append(all, timeEntry{key: k, id: id})
		return true
	})
	for i := len(all) - 1; i >= 0; i-- {
		if limit == 0 {
			return
		}
		if !visit(all[i].key, all[i].id) {
			return
		}
		if limit > 0 {
			limit--
		}
	}
}

// topicCount counts live docs carrying topic: base members not masked, plus
// overlay carriers.
func (sn *snapshot) topicCount(topic string) int {
	set := sn.base.byTopic[topic]
	n := len(set)
	for id := range sn.ov.masked {
		if set[id] {
			n--
		}
	}
	for _, d := range sn.ov.byID {
		for _, t := range d.Topics {
			if t == topic {
				n++
				break
			}
		}
	}
	return n
}

// hasTopic reports whether the live doc id carries topic. Callers only pass
// ids that came out of a live scan, so masked base ids never reach here.
func (sn *snapshot) hasTopic(id, topic string) bool {
	if d, ok := sn.ov.byID[id]; ok {
		for _, t := range d.Topics {
			if t == topic {
				return true
			}
		}
		return false
	}
	return sn.base.byTopic[topic][id]
}

package docstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/feature"
	"repro/internal/telemetry"
)

// Options configures a Store.
type Options struct {
	// Dir is the durability directory. Empty means a purely in-memory
	// store (used by simulations, which create hundreds of them).
	Dir string
	// ConceptDim once sized the vector index's hyperplanes.
	//
	// Deprecated: ignored since vector search is exact; removed at the next
	// benchmark revision.
	ConceptDim int
	// Seed once drew the vector index's hyperplanes.
	//
	// Deprecated: ignored since vector search is exact; removed at the next
	// benchmark revision.
	Seed int64
	// SyncEveryPut makes every Put/Delete/PutBatch durable before it
	// returns: the commit pipeline fsyncs each window, so N writers
	// waiting in one window share a single fsync (group commit) but each
	// still only gets its ack after its record is on disk. Simulations
	// leave it false (flush, no fsync); the TCP node sets it.
	SyncEveryPut bool
	// CompactAfterBytes triggers automatic snapshot+truncate once the WAL
	// exceeds this size. Zero disables auto-compaction.
	CompactAfterBytes int64
	// QueryCacheSize bounds the generation-tagged query-result cache
	// fronting SearchText/SearchTextGlobal. Zero picks the default (128
	// entries); negative disables caching entirely.
	QueryCacheSize int
	// Telemetry receives per-operation latency histograms and counters
	// (docstore.put, docstore.search.*, docstore.compact, WAL replay,
	// docstore.epoch, docstore.cache.*, docstore.snapshot.freezes with the
	// docstore.freeze.latency histogram — a commit window compiled into a
	// segment — the docstore.segments gauge, docstore.merge.latency and
	// docstore.merge.docs for the tier merges, the group-commit pipeline's
	// docstore.wal.{syncs,windows,group_size,sync_wait_us} counters plus
	// the docstore.commit latency histogram, and the gauges
	// docstore.commit.queue_depth — requests waiting when the committer
	// starts a window, those it takes included; 0 on an in-memory store —
	// and docstore.compact.in_flight, 1 while a compaction cycle runs).
	// Nil disables instrumentation.
	Telemetry *telemetry.Registry
}

// storeTel caches resolved instruments; with a nil registry every field is
// nil and each call site degrades to a nil-receiver no-op.
type storeTel struct {
	puts, deletes, searches, walRecords, freezes, mergeDocs     *telemetry.Counter
	walSyncs, walWindows, walGroupSize, walSyncWaitUs           *telemetry.Counter
	compactErrors                                               *telemetry.Counter
	epoch, queueDepth, compactActive, segments                  *telemetry.Gauge
	putLat, deleteLat, textLat, vectorLat, visualLat, hybridLat *telemetry.Histogram
	compactLat, replayLat, commitLat, freezeLat, mergeLat       *telemetry.Histogram
}

func newStoreTel(reg *telemetry.Registry) storeTel {
	if reg == nil {
		return storeTel{}
	}
	return storeTel{
		puts:       reg.Counter("docstore.puts"),
		deletes:    reg.Counter("docstore.deletes"),
		searches:   reg.Counter("docstore.searches"),
		walRecords: reg.Counter("docstore.wal.records.replayed"),
		freezes:    reg.Counter("docstore.snapshot.freezes"),
		// Documents rewritten by tier merges: over puts, the write amplification.
		mergeDocs: reg.Counter("docstore.merge.docs"),
		// Group-commit pipeline: fsyncs issued, commit windows closed, and
		// records committed across all windows — mean window size is
		// group_size / windows, fsync amortization is puts+deletes / syncs.
		walSyncs:      reg.Counter("docstore.wal.syncs"),
		walWindows:    reg.Counter("docstore.wal.windows"),
		walGroupSize:  reg.Counter("docstore.wal.group_size"),
		walSyncWaitUs: reg.Counter("docstore.wal.sync_wait_us"),
		compactErrors: reg.Counter("docstore.compact.errors"),
		epoch:         reg.Gauge("docstore.epoch"),
		queueDepth:    reg.Gauge("docstore.commit.queue_depth"),
		compactActive: reg.Gauge("docstore.compact.in_flight"),
		segments:      reg.Gauge("docstore.segments"),
		putLat:        reg.Histogram("docstore.put"),
		deleteLat:     reg.Histogram("docstore.delete"),
		textLat:       reg.Histogram("docstore.search.text"),
		vectorLat:     reg.Histogram("docstore.search.vector"),
		visualLat:     reg.Histogram("docstore.search.visual"),
		hybridLat:     reg.Histogram("docstore.search.hybrid"),
		compactLat:    reg.Histogram("docstore.compact"),
		replayLat:     reg.Histogram("docstore.wal.replay"),
		commitLat:     reg.Histogram("docstore.commit"),
		// What a window holds Store.mu for beyond its log write has two
		// parts: its batch compiled into a segment and its tombstones folded
		// in, then — some windows — the newest tiers merged into one.
		freezeLat: reg.Histogram("docstore.freeze.latency"),
		mergeLat:  reg.Histogram("docstore.merge.latency"),
	}
}

// Store errors.
var (
	ErrNotFound = errors.New("docstore: document not found")
	ErrClosed   = errors.New("docstore: store closed")
	ErrEmptyID  = errors.New("docstore: empty document id")
)

// Store is a durable, indexed document store. All methods are safe for
// concurrent use. Every write (Put/Delete/PutBatch) is staged as a request
// into the group-commit pipeline (commit.go): with a Dir, a single committer
// goroutine batches WAL appends and amortizes one fsync across every writer
// waiting in the window, then applies and publishes the window's ops in
// arrival order as one epoch; without one, each writer runs the same window
// code itself, minus the WAL. Every read method loads the published epoch
// snapshot and runs lock-free, so searches never block writers and never
// take the store lock (a contract enforced by agoralint's lockfree analyzer
// — see snapshot.go for the epoch/segments design).
type Store struct {
	mu     sync.Mutex // serializes log appends and snapshot publishes; never taken on the read path
	opts   Options
	log    *wal  // guarded by mu
	logErr error // guarded by mu: why a failed reopen left log nil, which every later window returns
	tel    storeTel

	// snap is all the store's state: writers (under mu) read it as readers
	// do, and replace it.
	snap   atomic.Pointer[snapshot]
	cache  *queryCache
	tokens *tokenMemo

	// Group-commit pipeline. commits is nil on an in-memory store, whose
	// writers commit in their own goroutine. closeMu makes the closed-check
	// + hand-off in submit atomic against Close closing the channel.
	commits     chan *commitReq
	closeMu     sync.RWMutex
	committerWG sync.WaitGroup
	compactWG   sync.WaitGroup
	compacting  atomic.Bool

	closed   atomic.Bool
	puts     atomic.Uint64
	deletes  atomic.Uint64
	searches atomic.Uint64
	walBytes atomic.Int64
	// Block-max effectiveness counters: postings blocks decoded vs skipped
	// (proven unable to reach the top-k threshold) across all text searches.
	blocksDecoded atomic.Uint64
	blocksSkipped atomic.Uint64
}

// Open creates or recovers a store. With a Dir, it replays the snapshot and
// WAL, truncating any torn tail left by a crash.
func Open(opts Options) (*Store, error) {
	s := &Store{
		opts:   opts,
		tel:    newStoreTel(opts.Telemetry),
		cache:  newQueryCache(opts.QueryCacheSize, opts.Telemetry),
		tokens: newTokenMemo(opts.Telemetry),
	}
	if opts.Dir == "" {
		s.installLocked(&snapshot{epoch: 1})
		return s, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("docstore: creating dir: %w", err)
	}
	snapPath, walPath := snapshotPaths(opts.Dir)
	replayStart := time.Now()
	// Snapshot files carry a versioned header. The compiled (v2) format
	// loads postings blocks directly — no per-document re-tokenization. The
	// log after it (and all of a legacy snapshot, a WAL-format record stream)
	// is staged as one batch over the file's index, and the two are merged
	// once below, into one segment.
	file, err := loadSnapshotFile(snapPath)
	if err != nil {
		return nil, err
	}
	var segs []*segment
	if file != nil {
		segs = []*segment{{cx: file}}
	}
	delta := newBatch(0, len(segs))
	apply := func(op uint8, payload []byte) error {
		s.tel.walRecords.Inc()
		switch op {
		case opPut:
			d, err := unmarshalDocument(payload)
			if err != nil {
				return err
			}
			terms, n := docTerms(d)
			delta.put(d, terms, n, segs)
		case opDelete:
			delta.delete(string(payload), segs)
		}
		return nil
	}
	if file == nil {
		if _, _, err := replayWAL(snapPath, apply); err != nil {
			return nil, err
		}
	}
	clean, torn, err := replayWAL(walPath, apply)
	if err != nil {
		return nil, err
	}
	s.tel.replayLat.Observe(time.Since(replayStart))
	if torn {
		if err := truncateWAL(walPath, clean); err != nil {
			return nil, err
		}
	}
	s.log, err = openWAL(walPath)
	if err != nil {
		return nil, err
	}
	s.walBytes.Store(s.log.size)
	// One publish for the whole replay: per-record publishing would make
	// recovery O(n) snapshot churn for nothing.
	s.installLocked(&snapshot{epoch: 1, segs: merged(segs, delta)})
	s.startCommitter()
	return s, nil
}

// merged returns the live set of segs, less what b supersedes, and the
// documents b puts as one segment — the monolith every read must agree with —
// or no segment when nothing is live.
func merged(segs []*segment, b *batch) []*segment {
	if all := buildSegment(segs, b); len(all.cx.ids) > 0 {
		return []*segment{all}
	}
	return nil
}

// installLocked publishes sn. Callers hold mu (or are inside Open before the
// store escapes).
func (s *Store) installLocked(sn *snapshot) {
	s.snap.Store(sn)
	s.tel.epoch.Set(float64(sn.epoch))
	s.tel.segments.Set(float64(len(sn.segs)))
}

// publishWindowLocked publishes, as cur's successor, one epoch covering the n
// non-skipped ops of a commit window, staged in WAL order as one batch: what
// it supersedes is folded into the segments it touches, and its documents are
// compiled into a segment of their own — or, when they complete a run of the
// newest tiers (mergeRun), into the one segment that replaces the run. The
// window pays the compile once, exactly as it pays one fsync.
func (s *Store) publishWindowLocked(cur *snapshot, window []*commitReq, n int) {
	if n == 0 {
		return
	}
	start := time.Now()
	s.tel.freezes.Inc()
	b := newBatch(n, len(cur.segs))
	for _, req := range window {
		for i := range req.ops {
			switch op := &req.ops[i]; {
			case op.skip:
			case op.op == opDelete:
				b.delete(op.id, cur.segs)
			default:
				b.put(op.doc, op.terms, op.docLen, cur.segs)
				op.terms = nil // staged: only the batch holds them, until its compile copies them
			}
		}
	}
	segs := make([]*segment, len(cur.segs), len(cur.segs)+1)
	for si, seg := range cur.segs {
		segs[si] = seg.withDead(b.maskedIn(si))
	}
	keep, run := mergeRun(segs, len(b.byID))
	if run == nil && len(b.byID) > 0 {
		keep = append(keep, buildSegment(nil, b))
	}
	s.tel.freezeLat.Observe(time.Since(start))
	if run != nil {
		start = time.Now()
		seg := buildSegment(run, &batch{byID: b.byID}) // the tombstones are folded already
		keep = append(keep, seg)
		s.tel.mergeDocs.Add(uint64(len(seg.cx.ids)))
		s.tel.mergeLat.Observe(time.Since(start))
	}
	s.installLocked(&snapshot{epoch: cur.epoch + 1, segs: keep})
}

// Put stores (or replaces) a document durably: a PutBatch of one.
func (s *Store) Put(d *Document) error {
	return s.PutBatch([]*Document{d})
}

// PutBatch stores a batch of documents durably. Cloning and counting terms
// run here, in the caller's goroutine; the batch is then staged as one commit
// request, so it rides a single commit window end-to-end: one WAL append run,
// one fsync (per Options), and in-order publication as one epoch — later
// documents in the batch supersede earlier ones with the same id, exactly as
// sequential Puts would. An empty-id document fails the batch up front,
// before anything is staged.
func (s *Store) PutBatch(docs []*Document) error {
	for _, d := range docs {
		if d.ID == "" {
			return ErrEmptyID
		}
	}
	if len(docs) == 0 {
		return nil
	}
	start := time.Now()
	ops := make([]stagedOp, len(docs))
	for i, d := range docs {
		cp := d.Clone()
		terms, n := docTerms(cp)
		ops[i] = stagedOp{op: opPut, batchDoc: batchDoc{cp, terms, n}}
	}
	err := s.submit(ops, start)
	s.tel.putLat.Observe(time.Since(start))
	return err
}

// Delete removes a document durably. Deleting a missing id is a no-op
// returning ErrNotFound. Durability matches Put exactly: the delete record
// rides the same commit window and is fsynced under Options.SyncEveryPut.
func (s *Store) Delete(id string) error {
	start := time.Now()
	err := s.submit([]stagedOp{{op: opDelete, id: id}}, start)
	s.tel.deleteLat.Observe(time.Since(start))
	return err
}

// Get returns a copy of the document with the given id.
func (s *Store) Get(id string) (*Document, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	d := s.snap.Load().getDoc(id)
	if d == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return d.Clone(), nil
}

// Len returns the number of stored documents.
func (s *Store) Len() int {
	return s.snap.Load().docCount()
}

// Epoch returns the current snapshot generation. Each commit window bumps it
// once: a Put, a Delete or a whole PutBatch is one bump (less when
// concurrent durable writers share a window). Callers use it to tag derived
// results that stay valid until the next write (the query cache here, the
// statistics a shard router holds).
func (s *Store) Epoch() uint64 {
	return s.snap.Load().epoch
}

// Hit is a scored search result. Search results share snapshot-owned
// documents: they are immutable and stay valid indefinitely (the snapshot
// they came from is never mutated), but callers must treat them as
// read-only — mutate a copy (Doc.Clone) instead. This is what makes the
// steady-state query path allocation-free. A hit also keeps its place: the
// index its document was found in and its ordinal there, which Terms reads.
type Hit struct {
	Doc   *Document
	Score float64
	cx    *compiledIndex
	ord   uint32
}

// Terms calls fn with each of the hit's document's distinct terms,
// ascending, and its count there — what the write path counted when it
// stored the document — read from the forward index of the segment the hit
// came from: no lookup, no allocation, and the same pairs however the store
// has changed since. The term strings are immutable and may be kept. Only a
// hit the store returned has a place: h must be one.
func (h Hit) Terms(fn func(term string, tf int)) {
	for f := h.cx.fwd[h.ord]; len(f) > 0; f = f[2:] {
		fn(h.cx.termList[f[0]], int(f[1]))
	}
}

// SearchText ranks documents against a free-text query. Results are served
// from the generation-tagged cache when the same (query, k) was answered at
// the current epoch; cache hits do not re-execute (and do not count as a
// search in Stats). Returned hits are read-only (see Hit).
func (s *Store) SearchText(query string, k int) []Hit {
	hits, _, _ := s.searchText(query, k, nil)
	return hits
}

// searchText is the one body behind SearchText (gs == nil: this store's own
// statistics) and SearchTextGlobal (router-supplied ones). The cache key
// spells out everything the scores depend on — query, k and, for a global
// ask, the document total and every (term, df) pair — and the entry is
// tagged with the epoch of the snapshot searched, which is also returned:
// the answer names the exact state it was computed from. What gs assumes of
// this store is in the key: a hit is a confirmation already made at that
// epoch, a miss checks it against the snapshot about to be searched.
func (s *Store) searchText(query string, k int, gs *GlobalStats) ([]Hit, uint64, bool) {
	start := time.Now()
	defer func() { s.tel.textLat.Observe(time.Since(start)) }()
	sn := s.snap.Load()
	sc := getScratch()
	sc.keyBuf = appendTextKey(sc.keyBuf[:0], query, k, gs)
	if hits, ok := s.cache.get(sc.keyBuf, sn.epoch); ok || !sn.confirms(gs) {
		putScratch(sc)
		return hits, sn.epoch, ok
	}
	s.countSearch()
	raw := sn.searchTextRaw(s.tokens.tokenize(query), k, sc, gs)
	s.noteSearchStats(&sc.stats)
	s.cache.put(sc.keyBuf, sn.epoch, raw)
	putScratch(sc)
	return raw, sn.epoch, true
}

// SearchTextExhaustive ranks with early termination disabled: every
// candidate is scored through the same accumulation code SearchText uses.
// It exists as the reference for property tests and experiments proving the
// block-max path bit-identical; it bypasses the query cache and is not the
// API to serve queries from.
func (s *Store) SearchTextExhaustive(query string, k int) []Hit {
	sn := s.snap.Load()
	sc := getScratch()
	s.countSearch()
	hits := sn.searchTextExhaustive(s.tokens.tokenize(query), k, sc)
	s.noteSearchStats(&sc.stats)
	putScratch(sc)
	return hits
}

// SearchVector ranks documents by cosine similarity of concept vectors: an
// exact scan over every live vector, so its answer is the brute-force
// ranking. Returned hits are read-only (see Hit).
func (s *Store) SearchVector(concept feature.Vector, k int) []Hit {
	if concept.Norm() == 0 {
		return nil // a zero vector matches nothing, not everything
	}
	start := time.Now()
	defer func() { s.tel.vectorLat.Observe(time.Since(start)) }()
	s.countSearch()
	sn := s.snap.Load()
	sc := getScratch()
	hits := sn.assembleHits(sn.searchVectorRaw(concept, k, sc))
	putScratch(sc)
	return hits
}

// SearchVisual ranks image-bearing documents by low-level visual
// similarity (color-histogram intersection blended with texture cosine) —
// the "visible features" match of the paper's jewelry scenario. Documents
// without visual features are skipped; when no live document carries any,
// the method returns before building scratch state. Selection is the vector
// pool's, not a full sort.
func (s *Store) SearchVisual(query feature.VisualFeatures, colorWeight float64, k int) []Hit {
	if len(query.ColorHist) == 0 && len(query.Texture) == 0 {
		return nil
	}
	start := time.Now()
	defer func() { s.tel.visualLat.Observe(time.Since(start)) }()
	s.countSearch()
	sn := s.snap.Load()
	if sn.visualCount() == 0 {
		return nil
	}
	sc := getScratch()
	sel := selection{k: k, items: sc.heap[:0]}
	for si, seg := range sn.segs {
		for ord, d := range seg.cx.docs {
			if hasVisual(d) && !seg.isDead(uint32(ord)) {
				sel.offer(scored{id: d.ID, seg: int32(si), ord: uint32(ord), score: feature.VisualSimilarity(query, feature.VisualFeatures{
					ColorHist: d.ColorHist, Texture: d.Texture,
				}, colorWeight)})
			}
		}
	}
	sc.heap = sel.best()
	hits := sn.assembleHits(sc.heap)
	putScratch(sc)
	return hits
}

// SearchHybrid blends text and vector scores: score = (1-alpha)*text +
// alpha*vector, where each component is normalized to [0,1] over its own
// candidate pool. This is the compound "feature set" knob experiment E1
// sweeps. Both components read one snapshot, so a hybrid result is
// consistent at a single epoch. Unlike SearchText it is not cached: every
// call is one search.
func (s *Store) SearchHybrid(query string, concept feature.Vector, alpha float64, k int) []Hit {
	if alpha <= 0 {
		return s.SearchText(query, k)
	}
	if alpha >= 1 {
		return s.SearchVector(concept, k)
	}
	start := time.Now()
	defer func() { s.tel.hybridLat.Observe(time.Since(start)) }()
	// One hybrid query is one search, even though it consults two indexes.
	s.countSearch()
	sn := s.snap.Load()
	sc := getScratch()
	hits := sn.searchHybridRaw(s.tokens.tokenize(query), concept, alpha, k, sc)
	s.noteSearchStats(&sc.stats)
	putScratch(sc)
	return hits
}

// Newest returns up to k live documents carrying topic — any document when
// topic is "" — newest first, as hits that keep their place (see Hit) and
// share snapshot-owned documents; k <= 0 means all of them. Each scores 1:
// a time scan orders, it does not score. It walks the time index, so old
// topical documents are found regardless of how much newer off-topic
// content exists.
func (s *Store) Newest(topic string, k int) []Hit {
	sn := s.snap.Load()
	n := sn.docCount()
	if topic != "" {
		n = sn.topicCount(topic)
	}
	if k > 0 {
		n = min(n, k)
	}
	if n == 0 {
		return nil
	}
	out := make([]Hit, 0, n)
	sn.scanDesc(1<<62, -1, func(seg *segment, ord uint32) bool {
		if d := seg.cx.docs[ord]; topic == "" || slices.Contains(d.Topics, topic) {
			out = append(out, Hit{Doc: d, Score: 1, cx: seg.cx, ord: ord})
		}
		return len(out) < n
	})
	return out
}

// TopicCount returns how many documents carry the topic.
func (s *Store) TopicCount(topic string) int {
	return s.snap.Load().topicCount(topic)
}

// RecentSince returns documents with CreatedAt in [since, until], ascending.
func (s *Store) RecentSince(since, until int64) []*Document {
	var out []*Document
	s.snap.Load().scanAsc(since, until, func(seg *segment, ord uint32) bool {
		out = append(out, seg.cx.docs[ord].Clone())
		return true
	})
	return out
}

// Freshest returns up to k newest documents, newest first.
func (s *Store) Freshest(k int) []*Document {
	var out []*Document
	s.snap.Load().scanDesc(1<<62, k, func(seg *segment, ord uint32) bool {
		out = append(out, seg.cx.docs[ord].Clone())
		return true
	})
	return out
}

// All visits every document (copies): each segment's in ID order, oldest
// segment first.
func (s *Store) All(visit func(*Document) bool) {
	for _, seg := range s.snap.Load().segs {
		for ord, d := range seg.cx.docs {
			if !seg.isDead(uint32(ord)) && !visit(d.Clone()) {
				return
			}
		}
	}
}

// countSearch bumps both the internal stats counter and telemetry. It is
// lock-free so compound searches can invoke uncounted internals and still
// count themselves exactly once.
func (s *Store) countSearch() {
	s.searches.Add(1)
	s.tel.searches.Inc()
}

// noteSearchStats folds one query's block counters into the store totals.
func (s *Store) noteSearchStats(st *searchStats) {
	if st.blocksDecoded != 0 {
		s.blocksDecoded.Add(st.blocksDecoded)
	}
	if st.blocksSkipped != 0 {
		s.blocksSkipped.Add(st.blocksSkipped)
	}
}

// Compact writes a snapshot of the current state and drops the WAL prefix
// it covers. The build runs off the writer critical path — commit windows
// keep flowing while the snapshot file streams out — and Store.mu is taken
// only to pin the start point and to swap files at the end. Returns nil
// immediately when a (background) compaction is already in flight.
func (s *Store) Compact() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.opts.Dir == "" {
		return nil
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer s.compacting.Store(false)
	return s.compactOnce()
}

// compactOnce is one compaction cycle. Correctness hinges on the pin taken
// under mu: the committer appends, applies, and publishes under the same
// lock, so at the pin instant the first `off` logical WAL bytes correspond
// exactly to the published snapshot `sn`. The replacement snapshot file is
// built from `sn` alone (immutable, no lock), and the swap rewrites the WAL
// to just the bytes past `off` — the ops committed while the build ran.
//
// Crash safety between the two renames: if the process dies after the
// snapshot rename but before the WAL rewrite, recovery replays the full old
// WAL on top of the new snapshot file. That is a fixed point — for every id
// the last logged op matches the snapshot's state, and WAL replay applies
// ops in order — so the store converges to the same contents
// (TestCompactCrashBetweenSwaps pins this).
func (s *Store) compactOnce() error {
	start := time.Now()
	s.tel.compactActive.Set(1)
	defer func() {
		s.tel.compactActive.Set(0)
		s.tel.compactLat.Observe(time.Since(start))
	}()

	// Phase 1 (under mu): pin the snapshot/WAL consistency point.
	s.mu.Lock()
	if s.closed.Load() || s.log == nil {
		s.mu.Unlock()
		return ErrClosed
	}
	sn := s.snap.Load()
	off := s.log.size
	s.mu.Unlock()

	// Phase 2 (no lock): merge the segments into one index — the same merge a
	// tier merge runs, over everything, never re-tokenizing documents — and
	// write the live set as a v2 snapshot into a temp file.
	snapPath, walPath := snapshotPaths(s.opts.Dir)
	tmp := snapPath + ".tmp"
	merged := mergeIndex(sn.segs, nil)
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("docstore: creating snapshot: %w", err)
	}
	err = writeSnapshotV2(f, merged)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("docstore: closing snapshot: %w", cerr)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}

	// Phase 3 (under mu): install the snapshot and rewrite the WAL to the
	// tail past the pin. The committer is paused only for this swap.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		os.Remove(tmp)
		return ErrClosed
	}
	if err := s.log.flush(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, snapPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("docstore: installing snapshot: %w", err)
	}
	tailTmp := walPath + ".tail"
	tf, err := os.Create(tailTmp)
	if err != nil {
		return fmt.Errorf("docstore: creating wal tail: %w", err)
	}
	src, err := os.Open(walPath)
	if err != nil {
		tf.Close()
		os.Remove(tailTmp)
		return fmt.Errorf("docstore: reopening wal: %w", err)
	}
	if _, err = src.Seek(off, io.SeekStart); err == nil {
		_, err = io.Copy(tf, src)
	}
	src.Close()
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tailTmp)
		return fmt.Errorf("docstore: writing wal tail: %w", err)
	}
	if err := s.log.close(); err != nil {
		return err
	}
	if err := os.Rename(tailTmp, walPath); err != nil {
		return fmt.Errorf("docstore: installing wal tail: %w", err)
	}
	if s.log, err = openWAL(walPath); err != nil {
		s.logErr = err
		return err
	}
	s.walBytes.Store(s.log.size)
	return nil
}

// Close flushes and closes the store: it stops admitting writes, drains
// every commit window already queued (each blocked writer gets its ack),
// joins the committer and any in-flight background compaction, then closes
// the WAL.
func (s *Store) Close() error {
	s.closeMu.Lock()
	if s.closed.Load() {
		s.closeMu.Unlock()
		return nil
	}
	s.closed.Store(true)
	if s.commits != nil {
		close(s.commits)
	}
	s.closeMu.Unlock()
	s.committerWG.Wait()
	s.compactWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		return s.log.close()
	}
	return nil
}

// Stats reports operation counters and index sizes. BlocksDecoded and
// BlocksSkipped count postings blocks across all text searches; their ratio
// is the block-max early-termination win.
type Stats struct {
	Docs          int
	Puts          uint64
	Deletes       uint64
	Searches      uint64
	WALBytes      int64
	BlocksDecoded uint64
	BlocksSkipped uint64
}

// Stats returns a snapshot of store statistics, assembled entirely from the
// published snapshot and atomic counters — it never touches the store lock.
// Searches counts executed searches; queries answered from the result cache
// do not re-execute and are visible in docstore.cache.hits instead.
func (s *Store) Stats() Stats {
	sn := s.snap.Load()
	return Stats{
		Docs:          sn.docCount(),
		Puts:          s.puts.Load(),
		Deletes:       s.deletes.Load(),
		Searches:      s.searches.Load(),
		WALBytes:      s.walBytes.Load(),
		BlocksDecoded: s.blocksDecoded.Load(),
		BlocksSkipped: s.blocksSkipped.Load(),
	}
}

package shard

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Router runs scatter-gather asks over a shard map. The dispatch pipeline,
// per ask:
//
//  1. Statistics: collect per-shard per-term (df, maxRatio) via the
//     TermStats RPC, cached per shard and invalidated on epoch drift. The
//     sums give the corpus-wide document count and frequencies every shard
//     must score under for the merge to be bit-identical to a single node.
//  2. Planning: each shard gets a score upper bound — Σ over query terms
//     present on the shard of qw·idf·maxRatio. Shards bounding to zero
//     hold no matching document and are pruned outright.
//  3. Probe: when the best shard's bound dominates the runner-up's by
//     probeDominance, it is asked alone first; its answers seed the merge
//     threshold θ so the remaining bound checks have teeth.
//  4. Scatter: bounded workers (the PR-2 fan-out shape) dispatch the
//     surviving shards best-bound-first, re-checking θ before each RPC;
//     a shard whose bound can no longer reach θ is dropped without a
//     round-trip. Slow primaries get one hedged retry against a replica.
//  5. Merge: per-shard top-k lists stream through MergeTopK.
//
// A dead shard yields a partial result (Partial flag + per-shard error),
// never a failed ask.
type Router struct {
	timeout time.Duration
	reg     *telemetry.Registry
	tel     routerTel

	shards []*routerShard
	terms  termMemo

	// wg tracks hedge/backup attempt goroutines; Close joins them so no
	// attempt outlives the router's connections.
	wg     sync.WaitGroup
	closed bool
	mu     sync.Mutex
}

// routerShard pairs a map member with its live connections (parallel to
// Addrs) and the cached term statistics for the shard's current epoch.
type routerShard struct {
	Member
	clients []*transport.Client

	mu    sync.Mutex
	total uint64
	epoch uint64
	stats map[string]termStat
}

// installStats folds one TermStats response into the shard's cache,
// flushing entries from an older epoch first. Length-mismatched responses
// (a malformed peer) are dropped rather than partially installed.
func (s *routerShard) installStats(terms []string, resp wire.TermStatsResp) {
	if len(resp.DF) != len(terms) || len(resp.MaxRatio) != len(terms) {
		return
	}
	s.mu.Lock()
	if resp.Epoch != s.epoch {
		clear(s.stats) // new epoch: everything cached is stale
	}
	s.total = resp.Total
	s.epoch = resp.Epoch
	for i, t := range terms {
		s.stats[t] = termStat{df: resp.DF[i], maxRatio: resp.MaxRatio[i]}
	}
	s.mu.Unlock()
}

type termStat struct {
	df       uint64
	maxRatio float64
}

// routerTel caches the scatter path's instruments; the zero value no-ops.
type routerTel struct {
	fanout, pruned, partial, hedges, drift *telemetry.Counter
	askLat, mergeLat                       *telemetry.Histogram
}

// Options configures a Router. Zero values select the defaults noted.
type Options struct {
	ClientID  string        // consumer id for handshakes (default "shard-router")
	Timeout   time.Duration // per-attempt RPC deadline (default 2s)
	Telemetry *telemetry.Registry
}

// The dispatch policy.
const (
	hedgeDelay     = 25 * time.Millisecond // wait before hedging a slow primary to a replica
	scatterWorkers = 4                     // concurrent shard dispatches
	probeDominance = 1.25                  // probe when best bound ≥ probeDominance × runner-up
)

func (o *Options) withDefaults() Options {
	out := *o
	if out.ClientID == "" {
		out.ClientID = "shard-router"
	}
	if out.Timeout <= 0 {
		out.Timeout = 2 * time.Second
	}
	return out
}

// NewRouter dials every member of m (each listed address) and returns a
// router over the resulting connections. Dial failures fail construction:
// a router must start from a fully connected view, while shards dying
// later degrade asks to partial results instead.
func NewRouter(m *Map, opts Options) (*Router, error) {
	opts = opts.withDefaults()
	r := &Router{
		timeout: opts.Timeout,
		reg:     opts.Telemetry,
		terms:   termMemo{m: make(map[string]canonical)},
	}
	if reg := opts.Telemetry; reg != nil {
		r.tel = routerTel{
			fanout:   reg.Counter("shard.scatter.fanout"),
			pruned:   reg.Counter("shard.scatter.pruned"),
			partial:  reg.Counter("shard.scatter.partial"),
			hedges:   reg.Counter("shard.scatter.hedges"),
			drift:    reg.Counter("shard.scatter.epoch.drift"),
			askLat:   reg.Histogram("shard.scatter.ask"),
			mergeLat: reg.Histogram("shard.scatter.merge_ns"),
		}
	}
	for _, mem := range m.Members() {
		rs := &routerShard{Member: mem, stats: make(map[string]termStat)}
		if len(mem.Addrs) == 0 {
			r.closeLocked()
			return nil, fmt.Errorf("shard: member %q has no address", mem.ID)
		}
		for _, addr := range mem.Addrs {
			c, err := transport.DialWithTelemetry(addr, opts.ClientID, opts.Timeout, opts.Telemetry)
			if err != nil {
				r.closeLocked()
				return nil, fmt.Errorf("shard: dial %s (%s): %w", mem.ID, addr, err)
			}
			rs.clients = append(rs.clients, c)
		}
		r.shards = append(r.shards, rs)
	}
	return r, nil
}

// Close tears down every connection and joins any in-flight hedge
// attempts.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closeLocked()
}

func (r *Router) closeLocked() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var err error
	for _, s := range r.shards {
		for _, c := range s.clients {
			if cerr := c.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	r.wg.Wait()
	return err
}

// Result is one scatter-gather answer.
type Result struct {
	Items []wire.ResultItem
	// Partial is set when at least one un-pruned shard failed to answer:
	// Items then covers only the shards that did. Errors attributes each
	// failure to its shard ID.
	Partial bool
	Errors  map[string]error
	Fanout  int // shards actually asked over the wire
	Pruned  int // shards eliminated by the bound checks
	Hedges  int // backup attempts launched
	TraceID uint64
}

// Ask runs an untraced scatter-gather text query.
func (r *Router) Ask(query string, k int) Result {
	return r.AskTraced(query, k, telemetry.TraceContext{})
}

// plannedShard is one shard's dispatch entry: its score upper bound under
// the current global statistics.
type plannedShard struct {
	rs *routerShard
	ub float64
}

// AskTraced is Ask continuing the caller's trace: the scatter gets one
// span per shard asked, and each shard server continues the trace in its
// own process, so /debug/trace stitches the whole cross-shard ask into one
// tree.
func (r *Router) AskTraced(query string, k int, tc telemetry.TraceContext) Result {
	start := now()
	tr := r.reg.StartTraceFrom(tc, "scatter", query)
	defer func() {
		r.tel.askLat.ObserveExemplar(since(start), tr.ID())
		tr.Finish()
	}()
	res := Result{TraceID: uint64(tr.ID()), Errors: map[string]error{}}

	terms, qns := r.terms.canonical(query)
	if len(terms) == 0 || k <= 0 {
		return res
	}

	// Phase 1: per-shard statistics (cached; one RPC per shard on miss).
	sp := tr.Span("stats", "")
	r.ensureStats(terms, &res)
	sp.End()

	// Phase 2: global weights and per-shard bounds. Shards whose stats RPC
	// failed are out of the plan (already attributed in res.Errors); shards
	// bounding to zero are provably hitless and pruned for free.
	gs := r.globalStats(terms, res.Errors)
	plan := r.plan(terms, qns, gs, &res)
	zeroPruned := len(r.shards) - len(plan) - len(res.Errors)

	// Phase 3+4: probe-then-scatter dispatch.
	ms := &mergeState{k: k, errors: res.Errors}
	r.dispatch(plan, query, k, gs, ms, tr)

	// Phase 5: streaming merge.
	mstart := now()
	res.Items = MergeTopK(ms.lists, k)
	r.tel.mergeLat.Observe(since(mstart))

	res.Partial = res.Partial || ms.partial
	res.Fanout = ms.fanout
	res.Pruned = ms.pruned + zeroPruned
	res.Hedges = ms.hedges
	r.tel.fanout.Add(uint64(res.Fanout))
	r.tel.pruned.Add(uint64(res.Pruned))
	r.tel.hedges.Add(uint64(res.Hedges))
	if res.Partial {
		r.tel.partial.Inc()
	}
	return res
}

// canonicalTerms tokenizes query into distinct terms in first-appearance
// order (the docstore's canonical accumulation order) with their query
// frequencies.
func canonicalTerms(query string) (terms []string, qns []int) {
	for _, t := range feature.Tokenize(query) {
		found := false
		for i := range terms {
			if terms[i] == t {
				qns[i]++
				found = true
				break
			}
		}
		if !found {
			terms = append(terms, t)
			qns = append(qns, 1)
		}
	}
	return terms, qns
}

// termMemoCap bounds the canonical-terms memo.
const termMemoCap = 256

// termMemo caches canonicalTerms per query string, the router-side twin of
// the docstore's tokenMemo: a repeated ask skips tokenizing. The slices are
// shared between asks and read-only — every consumer only reads or encodes
// them. Eviction drops an arbitrary entry; this is a hot-set cache.
type termMemo struct {
	mu sync.Mutex
	m  map[string]canonical
}

type canonical struct {
	terms []string
	qns   []int
}

func (tm *termMemo) canonical(query string) ([]string, []int) {
	tm.mu.Lock()
	c, ok := tm.m[query]
	tm.mu.Unlock()
	if ok {
		return c.terms, c.qns
	}
	c.terms, c.qns = canonicalTerms(query)
	tm.mu.Lock()
	if len(tm.m) >= termMemoCap {
		for k := range tm.m {
			delete(tm.m, k)
			break
		}
	}
	tm.m[query] = c
	tm.mu.Unlock()
	return c.terms, c.qns
}

// ensureStats fills every live shard's term-stat cache for terms, issuing
// one parallel TermStats RPC per shard that misses any. A shard whose RPC
// fails is recorded in res.Errors and marked partial: its documents cannot
// be scored under exact global statistics this ask.
func (r *Router) ensureStats(terms []string, res *Result) {
	// Stage first, wait second: TermStatsAsync puts every missing shard's
	// request on the wire back to back — per connection the frames ride one
	// coalesced batch — and only then does anyone block, so the stats
	// round-trips fully overlap instead of depending on goroutine
	// scheduling to get the requests out.
	type staged struct {
		s    *routerShard
		wait func() (wire.TermStatsResp, error)
	}
	var pending []staged
	for _, s := range r.shards {
		s.mu.Lock()
		missing := false
		for _, t := range terms {
			if _, ok := s.stats[t]; !ok {
				missing = true
				break
			}
		}
		s.mu.Unlock()
		if !missing {
			continue
		}
		pending = append(pending, staged{s: s, wait: s.clients[0].TermStatsAsync(terms, r.timeout)})
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, p := range pending {
		wg.Add(1)
		go func(p staged) {
			defer wg.Done()
			resp, err := p.wait()
			if err != nil && len(p.s.clients) > 1 {
				// Primary failed: one blocking retry against the replica.
				resp, err = p.s.clients[1].TermStats(terms, r.timeout)
			}
			if err != nil {
				mu.Lock()
				res.Errors[p.s.ID] = fmt.Errorf("term stats: %w", err)
				res.Partial = true
				mu.Unlock()
				return
			}
			p.s.installStats(terms, resp)
		}(p)
	}
	wg.Wait()
}

// globalQuery bundles the corpus-wide figures one ask scores under.
type globalQuery struct {
	total uint64
	terms []string
	df    []uint64
	idf   []float64
}

// globalStats sums the per-shard statistics into the corpus-wide document
// count and frequencies (shards that failed stats collection are excluded
// — the ask is already marked partial).
func (r *Router) globalStats(terms []string, errs map[string]error) globalQuery {
	gq := globalQuery{terms: terms, df: make([]uint64, len(terms)), idf: make([]float64, len(terms))}
	for _, s := range r.shards {
		if _, dead := errs[s.ID]; dead {
			continue
		}
		s.mu.Lock()
		gq.total += s.total
		for i, t := range terms {
			gq.df[i] += s.stats[t].df
		}
		s.mu.Unlock()
	}
	for i := range terms {
		if gq.df[i] > 0 {
			gq.idf[i] = docstore.IDF(gq.total, gq.df[i])
		}
	}
	return gq
}

// plan computes each live shard's score upper bound and returns the
// shards that can contribute at all, best bound first. A shard where no
// query term has a posting bounds to zero — provably hitless — and is
// pruned without a round-trip.
func (r *Router) plan(terms []string, qns []int, gs globalQuery, res *Result) []plannedShard {
	var plan []plannedShard
	for _, s := range r.shards {
		if _, dead := res.Errors[s.ID]; dead {
			continue
		}
		ub := 0.0
		s.mu.Lock()
		for i, t := range terms {
			st := s.stats[t]
			if st.df == 0 {
				continue
			}
			ub += docstore.QueryWeight(qns[i], gs.idf[i]) * gs.idf[i] * st.maxRatio
		}
		s.mu.Unlock()
		if ub <= 0 {
			continue
		}
		plan = append(plan, plannedShard{rs: s, ub: ub})
	}
	// Best bound first: descending ub, shard ID tiebreak for determinism.
	for i := 1; i < len(plan); i++ {
		for j := i; j > 0 && (plan[j].ub > plan[j-1].ub ||
			(plan[j].ub == plan[j-1].ub && plan[j].rs.ID < plan[j-1].rs.ID)); j-- {
			plan[j], plan[j-1] = plan[j-1], plan[j]
		}
	}
	return plan
}

// mergeState accumulates per-shard answers and the running threshold θ
// (the k-th best score seen so far — a monotone lower bound on the final
// k-th best, which is what makes pre-dispatch pruning safe).
type mergeState struct {
	mu      sync.Mutex
	k       int
	lists   [][]wire.ResultItem
	top     []float64 // min-heap of the best ≤k scores
	errors  map[string]error
	partial bool
	fanout  int
	pruned  int
	hedges  int
}

func (ms *mergeState) addList(items []wire.ResultItem) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.lists = append(ms.lists, items)
	for _, it := range items {
		if len(ms.top) < ms.k {
			ms.top = append(ms.top, it.Score)
			for i := len(ms.top) - 1; i > 0 && ms.top[i] < ms.top[(i-1)/2]; i = (i - 1) / 2 {
				ms.top[i], ms.top[(i-1)/2] = ms.top[(i-1)/2], ms.top[i]
			}
		} else if it.Score > ms.top[0] {
			ms.top[0] = it.Score
			i := 0
			for {
				l, r := 2*i+1, 2*i+2
				small := i
				if l < len(ms.top) && ms.top[l] < ms.top[small] {
					small = l
				}
				if r < len(ms.top) && ms.top[r] < ms.top[small] {
					small = r
				}
				if small == i {
					break
				}
				ms.top[i], ms.top[small] = ms.top[small], ms.top[i]
			}
		}
	}
}

// theta returns the pruning threshold: the k-th best score seen, valid
// only once k scores have arrived.
func (ms *mergeState) theta() (float64, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if len(ms.top) < ms.k {
		return 0, false
	}
	return ms.top[0], true
}

func (ms *mergeState) fail(id string, err error) {
	ms.mu.Lock()
	ms.errors[id] = err
	ms.partial = true
	ms.mu.Unlock()
}

// dispatch runs the probe-then-scatter loop over the planned shards.
func (r *Router) dispatch(plan []plannedShard, query string, k int, gs globalQuery, ms *mergeState, tr *telemetry.Trace) {
	next := 0
	if len(plan) >= 2 && plan[0].ub >= probeDominance*plan[1].ub {
		// Probe: the best-bounded shard dominates — ask it alone first so
		// its answers set θ before anything else is dispatched. On the
		// topical asks the workload skews toward, this one round-trip
		// often prunes every other shard.
		r.runShard(plan[0], query, k, gs, ms, tr)
		next = 1
	}
	if len(plan)-next == 1 {
		// One shard left (the usual case after a probe, or a one-shard
		// plan): ask it on this goroutine, no worker to start and join.
		r.tryShard(plan[next], query, k, gs, ms, tr)
		return
	}
	var wg sync.WaitGroup
	var idx sync.Mutex
	workers := min(scatterWorkers, len(plan)-next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx.Lock()
				if next >= len(plan) {
					idx.Unlock()
					return
				}
				ps := plan[next]
				next++
				idx.Unlock()
				r.tryShard(ps, query, k, gs, ms, tr)
			}
		}()
	}
	wg.Wait()
}

// tryShard asks ps unless θ already rules it out.
func (r *Router) tryShard(ps plannedShard, query string, k int, gs globalQuery, ms *mergeState, tr *telemetry.Trace) {
	if theta, ok := ms.theta(); ok && ps.ub*docstore.BoundSlack < theta {
		// Even this shard's most optimistic document loses to the current
		// k-th best — and θ only grows.
		ms.mu.Lock()
		ms.pruned++
		ms.mu.Unlock()
		return
	}
	r.runShard(ps, query, k, gs, ms, tr)
}

// runShard performs one shard's (possibly hedged) RPC and folds the
// outcome into ms.
func (r *Router) runShard(ps plannedShard, query string, k int, gs globalQuery, ms *mergeState, tr *telemetry.Trace) {
	s := ps.rs
	sp := tr.Span("shard", s.ID)
	res, hedged, err := r.attempt(s, query, k, gs, sp.Context())
	if hedged {
		ms.mu.Lock()
		ms.hedges++
		ms.mu.Unlock()
	}
	if err != nil {
		sp.Fail(err)
		sp.End()
		ms.fail(s.ID, err)
		return
	}
	sp.End()
	ms.mu.Lock()
	ms.fanout++
	ms.mu.Unlock()
	s.mu.Lock()
	if res.Epoch != 0 && res.Epoch != s.epoch {
		// The shard answered from a newer snapshot than the cached stats:
		// flush so the next ask re-collects (its ensureStats round stages
		// every missing shard's request on one coalesced batch). This
		// ask's figures are a consistent global view of the older epoch.
		// No speculative background refresh: under sustained ingest every
		// answer drifts and consecutive asks rarely share terms, so a
		// drift-triggered refetch is an extra stats RPC per ask that the
		// next ask cannot usually use — pure overhead on a busy host.
		clear(s.stats)
		r.tel.drift.Inc()
	}
	s.mu.Unlock()
	ms.addList(res.Items)
}

// attempt sends the query to the shard's primary, hedging one backup to a
// replica when the primary is slow (or retrying immediately when it fails
// fast and a replica exists). Attempt goroutines are tracked in r.wg —
// Close joins them — and both attempts are bounded by the per-attempt RPC
// timeout.
func (r *Router) attempt(s *routerShard, query string, k int, gs globalQuery, tc telemetry.TraceContext) (wire.QueryResult, bool, error) {
	ask := func(c *transport.Client) (wire.QueryResult, error) {
		return c.QueryGlobal(query, k, r.timeout, tc, gs.total, gs.terms, gs.df)
	}
	if len(s.clients) < 2 {
		res, err := ask(s.clients[0])
		return res, false, err
	}
	type out struct {
		res wire.QueryResult
		err error
	}
	ch := make(chan out, 2)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		res, err := ask(s.clients[0])
		ch <- out{res, err}
	}()
	select {
	case first := <-ch:
		if first.err == nil {
			return first.res, false, nil
		}
		// Fast failure: retry once on the replica (not a hedge — the
		// primary already answered with an error).
		res, err := ask(s.clients[1])
		return res, true, err
	case <-after(hedgeDelay):
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			res, err := ask(s.clients[1])
			ch <- out{res, err}
		}()
		first := <-ch
		if first.err != nil {
			first = <-ch // loser may still win; bounded by the RPC timeout
		}
		return first.res, true, first.err
	}
}

package shard

import (
	"fmt"
	"slices"
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
//  4. Scatter: the surviving shards' queries are staged best-bound-first,
//     up to scatterWindow on the wire at once, θ re-checked before each —
//     a shard whose bound can no longer reach θ is dropped without a
//     round-trip — and waited for in that order. A slow or failed primary
//     gets one hedged retry against a replica.
//  5. Merge: per-shard top-k lists stream through MergeTopK.
//
// The whole ask runs on the goroutine that asked: requests are staged
// without blocking (transport.Call) and the only waiting is for replies.
// A dead shard yields a partial result (Partial flag + per-shard error),
// never a failed ask.
type Router struct {
	timeout time.Duration
	reg     *telemetry.Registry
	tel     routerTel

	shards []*routerShard
	terms  termMemo

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
// flushing entries from an older epoch first. A response whose lengths
// disagree with the request (a malformed peer) is the shard's error, never
// partially installed: an empty cache would bound the shard to zero and
// prune it as hitless with nobody told.
func (s *routerShard) installStats(terms []string, resp wire.TermStatsResp) error {
	if len(resp.DF) != len(terms) || len(resp.MaxRatio) != len(terms) {
		return fmt.Errorf("reply carries %d df / %d ratio figures for %d terms", len(resp.DF), len(resp.MaxRatio), len(terms))
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
	return nil
}

// missing reports whether the cache lacks any of terms.
func (s *routerShard) missing(terms []string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range terms {
		if _, ok := s.stats[t]; !ok {
			return true
		}
	}
	return false
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
	hedgeDelay     = 25 * time.Millisecond // a primary silent this long after staging is hedged to a replica
	scatterWindow  = 4                     // shard queries kept on the wire at once
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
			r.Close()
			return nil, fmt.Errorf("shard: member %q has no address", mem.ID)
		}
		for _, addr := range mem.Addrs {
			c, err := transport.DialWithTelemetry(addr, opts.ClientID, opts.Timeout, opts.Telemetry)
			if err != nil {
				r.Close()
				return nil, fmt.Errorf("shard: dial %s (%s): %w", mem.ID, addr, err)
			}
			rs.clients = append(rs.clients, c)
		}
		r.shards = append(r.shards, rs)
	}
	return r, nil
}

// Close tears down every connection. There is nothing to join: an ask owns
// no goroutine, and one still waiting gets the connections' read errors.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
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
	res.Pruned = len(r.shards) - len(plan) - len(res.Errors)

	// Phase 3+4: probe-then-scatter dispatch.
	ms := mergeState{k: k, res: &res}
	r.dispatch(plan, query, gs, &ms, tr)

	// Phase 5: streaming merge.
	mstart := now()
	res.Items = MergeTopK(ms.lists, k)
	r.tel.mergeLat.Observe(since(mstart))

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
		if i := slices.Index(terms, t); i >= 0 {
			qns[i]++
			continue
		}
		terms = append(terms, t)
		qns = append(qns, 1)
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

// ensureStats fills every live shard's term-stat cache for terms. Stage
// first, wait second: every missing shard's request goes on the wire back
// to back — per connection the frames ride one coalesced batch — and only
// then does the ask block, on each reply in turn, so the round trips
// overlap. Shards whose primary failed get one retry against their replica,
// staged as found and awaited in a second pass: N failures cost one more
// round trip, not N. A shard still failing is recorded in res.Errors and
// marked partial: it cannot be scored under exact global statistics.
func (r *Router) ensureStats(terms []string, res *Result) {
	type staged struct {
		s    *routerShard
		call transport.Call[wire.TermStatsResp]
	}
	var pending []staged
	for _, s := range r.shards {
		if s.missing(terms) {
			pending = append(pending, staged{s, s.clients[0].StartTermStats(terms, r.timeout)})
		}
	}
	for pass := 0; len(pending) > 0; pass++ {
		retry := pending[:0] // refilled behind the read position
		for _, p := range pending {
			resp, err := p.call.Wait()
			if err != nil && pass == 0 && len(p.s.clients) > 1 {
				retry = append(retry, staged{p.s, p.s.clients[1].StartTermStats(terms, r.timeout)})
				continue
			}
			if err == nil {
				err = p.s.installStats(terms, resp)
			}
			if err != nil {
				res.Errors[p.s.ID] = fmt.Errorf("term stats: %w", err)
				res.Partial = true
			}
		}
		pending = retry
	}
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
// k-th best, which is what makes pre-dispatch pruning safe); the dispatch
// counts and failures go straight into the ask's Result. One ask, one
// goroutine: nothing here is shared.
type mergeState struct {
	k     int
	lists [][]wire.ResultItem
	top   []float64 // min-heap of the best ≤k scores
	res   *Result
}

func (ms *mergeState) addList(items []wire.ResultItem) {
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

// rulesOut reports whether θ — the k-th best score seen, valid only once k
// scores have arrived — already beats a shard's most optimistic document.
// θ only grows, so a shard ruled out stays out.
func (ms *mergeState) rulesOut(ub float64) bool {
	return len(ms.top) >= ms.k && ub*docstore.BoundSlack < ms.top[0]
}

// inflight is one shard's query on the wire: the primary call and the span
// that covers the exchange from staging to the folded answer.
type inflight struct {
	rs   *routerShard
	sp   *telemetry.Span
	call transport.Call[wire.QueryResult]
}

// dispatch runs the probe-then-scatter loop over the planned shards: one
// window of staged queries, filled best-bound-first with the θ check before
// each and drained in staging order. The probe is that window opened at
// one — when the best-bounded shard dominates it is asked alone, so its
// answers set θ before anything else is staged; on the topical asks the
// workload skews toward, that one round trip often prunes every other
// shard.
func (r *Router) dispatch(plan []plannedShard, query string, gs globalQuery, ms *mergeState, tr *telemetry.Trace) {
	window := scatterWindow
	if len(plan) >= 2 && plan[0].ub >= probeDominance*plan[1].ub {
		window = 1
	}
	var ring [scatterWindow]inflight
	head, n := 0, 0
	for {
		for ; n < window && len(plan) > 0; plan = plan[1:] {
			if ms.rulesOut(plan[0].ub) {
				ms.res.Pruned++
				continue
			}
			s := plan[0].rs
			sp := tr.Span("shard", s.ID)
			ring[(head+n)%scatterWindow] = inflight{s, sp, r.startQuery(s.clients[0], query, gs, ms.k, sp)}
			n++
		}
		if n == 0 {
			return
		}
		r.collect(&ring[head], query, gs, ms)
		head, n = (head+1)%scatterWindow, n-1
		window = scatterWindow
	}
}

func (r *Router) startQuery(c *transport.Client, query string, gs globalQuery, k int, sp *telemetry.Span) transport.Call[wire.QueryResult] {
	return c.StartQueryGlobal(query, k, r.timeout, sp.Context(), gs.total, gs.terms, gs.df)
}

// collect waits for one staged shard's answer and folds it into ms. A
// shard with a replica is hedged here: when the primary has not answered
// hedgeDelay after staging, or failed fast, the replica is asked too and
// the first good answer wins — the loser is dropped, nobody waits for it.
func (r *Router) collect(f *inflight, query string, gs globalQuery, ms *mergeState) {
	s := f.rs
	var res wire.QueryResult
	var err error
	if len(s.clients) < 2 {
		res, err = f.call.Wait()
	} else if v, done, perr := f.call.WaitWithin(hedgeDelay); done && perr == nil {
		res = v
	} else {
		ms.res.Hedges++
		backup := r.startQuery(s.clients[1], query, gs, ms.k, f.sp)
		if done {
			res, err = backup.Wait()
		} else {
			res, err = transport.First(f.call, backup)
		}
	}
	if err != nil {
		f.sp.Fail(err)
		ms.res.Errors[s.ID] = err
		ms.res.Partial = true
		return
	}
	f.sp.End()
	ms.res.Fanout++
	s.mu.Lock()
	if res.Epoch != 0 && res.Epoch != s.epoch {
		// The shard answered from a newer snapshot than the cached stats:
		// flush so the next ask re-collects. This ask's figures are a
		// consistent global view of the older epoch. No speculative
		// background refresh: under sustained ingest every answer drifts
		// and consecutive asks rarely share terms, so a drift-triggered
		// refetch is a stats RPC per ask the next ask cannot usually use.
		clear(s.stats)
		r.tel.drift.Inc()
	}
	s.mu.Unlock()
	ms.addList(res.Items)
}

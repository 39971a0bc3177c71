package shard

import (
	"errors"
	"fmt"
	"math"
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
//  1. Statistics: per-shard per-term (df, maxRatio), held as the shard last
//     reported them, zero where it never has. The sums give the corpus-wide
//     document count and frequencies every shard must score under for the
//     merge to be bit-identical to a single node. Each query names the
//     addends used for its shard, which answers only from a snapshot they
//     still describe; otherwise it sends its figures (drift) and the ask
//     starts over from the corrected sums — also how figures are first learnt.
//  2. Planning: each shard gets a score upper bound — Σ over query terms
//     present on the shard of qw·idf·maxRatio. Shards bounding to zero
//     hold no matching document and are pruned outright; a cold shard, one
//     lacking a figure, has no bound.
//  3. Probe: the cold shards are asked first, all together; else, when the
//     best shard's bound dominates the runner-up's by probeDominance, it is
//     asked alone first; its answers seed the merge threshold θ so the
//     remaining bound checks have teeth.
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
// Addrs) and the figures the shard last reported: its document count and
// the statistics of the terms asked so far.
type routerShard struct {
	Member
	clients []*transport.Client

	mu    sync.Mutex
	total uint64
	stats map[string]termStat
}

// install folds figures a shard reported for terms — a drift reply, or what
// a cold shard confirmed, from the primary or a replica — into its cache. A
// reply that contradicts the cache (another document count, another figure
// for a term it names) shows the shard was written to since, so what it does
// not restate is dropped with what it corrects; one that agrees drops
// nothing, whatever epoch it was read at. A reply whose lengths disagree with the
// request (a malformed peer) is the shard's error, never partially
// installed: an empty cache would bound the shard to zero and prune it as
// hitless with nobody told.
func (s *routerShard) install(terms []string, total uint64, df []uint64, maxRatio []float64) error {
	if len(df) != len(terms) || len(maxRatio) != len(terms) {
		return fmt.Errorf("reply carries %d df / %d ratio figures for %d terms", len(df), len(maxRatio), len(terms))
	}
	s.mu.Lock()
	changed := total != s.total
	for i, t := range terms {
		if held, ok := s.stats[t]; ok && held != (termStat{df[i], maxRatio[i]}) {
			changed = true
		}
	}
	if changed {
		clear(s.stats)
	}
	s.total = total
	for i, t := range terms {
		s.stats[t] = termStat{df[i], maxRatio[i]}
	}
	s.mu.Unlock()
	return nil
}

// view copies the shard's held figures for terms into its slots of a
// globalQuery, all under one lock: the addends one pass of an ask sums, plans
// with and names to the shard. A term the cache lacks is assumed absent (df
// and ratio 0); complete is false when there was one.
func (s *routerShard) view(terms []string, counts []uint64, ratios []float64) (complete bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	complete = true
	for i, t := range terms {
		st, ok := s.stats[t]
		complete = complete && ok
		counts[1+i], ratios[i] = st.df, st.maxRatio
	}
	counts[0] = s.total
	return complete
}

type termStat struct {
	df       uint64
	maxRatio float64
}

// routerTel caches the scatter path's instruments; the zero value no-ops.
type routerTel struct {
	fanout, pruned, partial, hedges, drift, restarts *telemetry.Counter
	askLat, mergeLat                                 *telemetry.Histogram
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
	maxDrift       = 3                     // corrections of held figures one shard may send in one ask before it is given up on
)

// ErrDrift is the error (errors.Is) of a shard written to faster than an ask
// could follow: maxDrift queries each found it away from its last report.
var ErrDrift = errors.New("shard: statistics drifted")

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
			restarts: reg.Counter("shard.scatter.restarts"),
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
	// Fanout, Pruned and Hedges count the final pass: a correction restarts
	// the ask, and what the passes before it asked is discarded.
	Fanout  int // shards actually asked over the wire
	Pruned  int // shards eliminated by the bound checks
	Hedges  int // backup attempts launched
	TraceID uint64
	// Epochs names, per shard that answered, the snapshot epoch it confirmed
	// the ask's figures on and searched: the state Items was computed from.
	Epochs map[string]uint64
}

// Ask runs an untraced scatter-gather text query.
func (r *Router) Ask(query string, k int) Result {
	return r.AskTraced(query, k, telemetry.TraceContext{})
}

// plannedShard is one shard's dispatch entry: its position among the
// router's shards and its score upper bound under the pass's statistics,
// +Inf for a cold shard.
type plannedShard struct {
	rs *routerShard
	i  int
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
	res := Result{TraceID: uint64(tr.ID()), Errors: map[string]error{}, Epochs: map[string]uint64{}}

	terms, qns := r.terms.canonical(query)
	if len(terms) == 0 || k <= 0 {
		return res
	}
	gs := newGlobalQuery(terms, len(r.shards))
	ms := mergeState{k: k, res: &res}
	for {
		// Phases 1+2: held figures, global weights and per-shard bounds.
		plan, cold := r.plan(qns, &gs, &res)
		res.Pruned = len(r.shards) - len(plan) - len(res.Errors)

		// Phase 3+4: probe-then-scatter dispatch. A correction changes the sums:
		// what was collected was scored under the old ones and is discarded.
		if !r.dispatch(plan, cold, query, &gs, &ms, tr) {
			break
		}
		r.tel.restarts.Inc()
		ms.lists, ms.top, res.Fanout, res.Hedges = ms.lists[:0], ms.top[:0], 0, 0
		clear(res.Epochs)
	}

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

// globalQuery bundles the figures one pass of an ask scores under: the
// corpus-wide sums and, per shard, the addends they were made from.
type globalQuery struct {
	total uint64
	terms []string
	df    []uint64
	idf   []float64
	// The addends, shard after shard, in the arrays df and idf head: u holds a
	// document count then a df per term for each, f a maximum ratio per term.
	u []uint64
	f []float64
}

func newGlobalQuery(terms []string, shards int) globalQuery {
	n := len(terms)
	u, f := make([]uint64, n+shards*(n+1)), make([]float64, n+shards*n)
	return globalQuery{terms: terms, df: u[:n:n], idf: f[:n:n], u: u[n:], f: f[n:]}
}

// counts is shard i's document count followed by its df per term.
func (gq *globalQuery) counts(i int) []uint64 {
	return gq.u[i*(len(gq.terms)+1) : (i+1)*(len(gq.terms)+1)]
}

// ratios is shard i's maximum ratio per term.
func (gq *globalQuery) ratios(i int) []float64 {
	return gq.f[i*len(gq.terms) : (i+1)*len(gq.terms)]
}

// plan reads every live shard's held figures into gs, sums them into the
// corpus-wide document count and frequencies, and returns the shards that
// can contribute under those sums, cold first, then best bound first. A cold
// shard has no bound and is never pruned; a shard where no query term has a
// posting bounds to zero — provably hitless — and is pruned without a
// round-trip. Failed shards are left out: the ask is already partial.
func (r *Router) plan(qns []int, gs *globalQuery, res *Result) (plan []plannedShard, cold int) {
	plan = make([]plannedShard, 0, len(r.shards))
	gs.total = 0
	clear(gs.df)
	for i, s := range r.shards {
		if _, dead := res.Errors[s.ID]; dead {
			continue
		}
		c := gs.counts(i)
		p := plannedShard{rs: s, i: i}
		if !s.view(gs.terms, c, gs.ratios(i)) {
			p.ub = math.Inf(1)
			cold++
		}
		plan = append(plan, p)
		gs.total += c[0]
		for j := range gs.df {
			gs.df[j] += c[1+j]
		}
	}
	for j, df := range gs.df {
		gs.idf[j] = 0
		if df > 0 {
			gs.idf[j] = docstore.IDF(gs.total, df)
		}
	}
	live := plan[:0]
	for _, p := range plan {
		if p.ub == 0 { // not cold: bound it
			df, ratios := gs.counts(p.i)[1:], gs.ratios(p.i)
			for j := range gs.terms {
				if df[j] > 0 {
					p.ub += docstore.QueryWeight(qns[j], gs.idf[j]) * gs.idf[j] * ratios[j]
				}
			}
		}
		if p.ub > 0 {
			live = append(live, p)
		}
	}
	plan = live
	// Best bound first: descending ub, shard ID tiebreak for determinism.
	for i := 1; i < len(plan); i++ {
		for j := i; j > 0 && (plan[j].ub > plan[j-1].ub ||
			(plan[j].ub == plan[j-1].ub && plan[j].rs.ID < plan[j-1].rs.ID)); j-- {
			plan[j], plan[j-1] = plan[j-1], plan[j]
		}
	}
	return plan, cold
}

// mergeState accumulates per-shard answers and the running threshold θ
// (the k-th best score seen so far — a monotone lower bound on the final
// k-th best, which is what makes pre-dispatch pruning safe); the dispatch
// counts and failures go straight into the ask's Result. One ask, one
// goroutine: nothing here is shared.
type mergeState struct {
	k      int
	lists  [][]wire.ResultItem
	top    []float64 // min-heap of the best ≤k scores
	res    *Result
	drifts map[string]int // corrections per shard ID, over all passes
}

func (ms *mergeState) addList(items []wire.ResultItem) {
	ms.lists = append(ms.lists, items)
	if ms.top == nil {
		ms.top = make([]float64, 0, min(ms.k, 64)) // the usual k in one piece
	}
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
	plannedShard
	sp   *telemetry.Span
	call transport.Call
}

// dispatch runs the probe-then-scatter loop over the planned shards: one
// window of staged queries, filled best-bound-first with the θ check before
// each and drained in staging order. The probe is that window opened at
// one — when the best-bounded shard dominates it is asked alone, so its
// answers set θ before anything else is staged; on the topical asks the
// workload skews toward, that one round trip often prunes every other
// shard. Cold shards, which lead the plan, open it at their number instead,
// however many: each is likelier to correct the sums than to confirm them,
// so the others wait for what they say. After a correction (reported)
// nothing more is staged, and what is on the wire is drained for further
// ones.
func (r *Router) dispatch(plan []plannedShard, cold int, query string, gs *globalQuery, ms *mergeState, tr *telemetry.Trace) (drifted bool) {
	window := scatterWindow
	switch {
	case cold > 0:
		window = cold
	case len(plan) >= 2 && plan[0].ub >= probeDominance*plan[1].ub:
		window = 1
	}
	var buf [scatterWindow]inflight
	ring := buf[:]
	if cold > len(ring) {
		ring = make([]inflight, cold)
	}
	head, n := 0, 0
	for {
		for ; !drifted && n < window && len(plan) > 0; plan = plan[1:] {
			if ms.rulesOut(plan[0].ub) {
				ms.res.Pruned++
				continue
			}
			sp := tr.Span("shard", plan[0].rs.ID)
			ring[(head+n)%len(ring)] = inflight{plan[0], sp, r.startQuery(0, plan[0], query, gs, ms.k, sp)}
			n++
		}
		if n == 0 {
			return drifted
		}
		drifted = r.collect(&ring[head], query, gs, ms) || drifted
		head, n = (head+1)%len(ring), n-1
		window = scatterWindow
	}
}

// startQuery stages p's query on one of its connections: the global sums,
// and the addends p's shard contributed to them.
func (r *Router) startQuery(client int, p plannedShard, query string, gs *globalQuery, k int, sp *telemetry.Span) transport.Call {
	tc, c := sp.Context(), gs.counts(p.i)
	return p.rs.clients[client].StartQuery(wire.Query{
		Text: query, TopK: uint32(k),
		TraceID: uint64(tc.TraceID), SpanID: uint64(tc.SpanID),
		GlobalDocs: gs.total, StatsTerms: gs.terms, StatsDF: gs.df,
		Assumed: true, AssumedDocs: c[0], AssumedDF: c[1:], AssumedMaxRatio: gs.ratios(p.i),
	}, r.timeout)
}

// collect waits for one staged shard's reply and folds it into ms. A
// shard with a replica is hedged here: when the primary has not answered
// hedgeDelay after staging, or failed fast, the replica is asked too and
// the first good reply wins — the loser is dropped, nobody waits for it.
// A drift reply is installed and reported, fewer than maxDrift times per
// shard and ask; the next costs the ask that shard. A cold shard's first
// correction is how the router learns figures it never held: it is not
// drift and not counted. A cold shard that confirms had its figures
// assumed right, and they are installed as it confirmed them.
func (r *Router) collect(f *inflight, query string, gs *globalQuery, ms *mergeState) (drifted bool) {
	s := f.rs
	var res wire.QueryResult
	var err error
	if len(s.clients) < 2 {
		res, err = f.call.Wait()
	} else if v, done, perr := f.call.WaitWithin(hedgeDelay); done && perr == nil {
		res = v
	} else {
		ms.res.Hedges++
		backup := r.startQuery(1, f.plannedShard, query, gs, ms.k, f.sp)
		if done {
			res, err = backup.Wait()
		} else {
			res, err = transport.First(f.call, backup)
		}
	}
	cold := math.IsInf(f.ub, 1)
	if err == nil && res.Drift {
		if ms.drifts == nil {
			ms.drifts = map[string]int{}
		}
		// A shard corrected before in this ask had these terms' figures
		// installed: cold again, it was contradicted since.
		n, again := ms.drifts[s.ID]
		if again || !cold {
			r.tel.drift.Inc()
			n++
		}
		ms.drifts[s.ID] = n
		switch err = s.install(gs.terms, res.Docs, res.DF, res.MaxRatio); {
		case err != nil: // a malformed correction is the shard's error
		case n == 0: // first contact: figures learnt, nothing drifted
			f.sp.End()
			return true
		case n < maxDrift:
			f.sp.Fail(ErrDrift)
			return true
		default:
			err = fmt.Errorf("%w under each of %d queries, last at epoch %d", ErrDrift, maxDrift, res.Epoch)
		}
	}
	if err == nil && cold {
		c := gs.counts(f.i)
		err = s.install(gs.terms, c[0], c[1:], gs.ratios(f.i))
	}
	if err != nil {
		f.sp.Fail(err)
		ms.res.Errors[s.ID] = err
		ms.res.Partial = true
		return false
	}
	f.sp.End()
	ms.res.Fanout++
	ms.res.Epochs[s.ID] = res.Epoch
	ms.addList(res.Items)
	return false
}

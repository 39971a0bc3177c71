package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/ctxmodel"
	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/feedsys"
	"repro/internal/negotiate"
	"repro/internal/optimizer"
	"repro/internal/profile"
	"repro/internal/qos"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/social"
	"repro/internal/telemetry"
	"repro/internal/uncertainty"
)

// Session is one consumer's connection to the agora: it carries the user's
// profile, context detector, trust ledger, feed inbox, and the learned
// beliefs that steer optimization.
type Session struct {
	agora    *Agora
	Profile  *profile.Profile
	Rules    ctxmodel.RuleSet
	Context  ctxmodel.Context
	Detector *ctxmodel.Detector
	Ledger   *qos.ReputationLedger
	Inbox    *feedsys.Inbox
	learner  *profile.Learner
	rng      *rand.Rand
	// latencyBeliefs tracks observed per-source latencies (seconds).
	latencyObs map[string][]float64
	// Gamma is personalization strength; Beta is social re-rank strength.
	Gamma float64
	Beta  float64
	// CompleteQueries enables personalized query completion: top
	// positive-affinity profile terms are appended to the query text
	// (§5: "completion of queries" as a profile application).
	CompleteQueries bool
	// MaxSources bounds plan size.
	MaxSources int
	// NegotiationRounds bounds each bilateral negotiation.
	NegotiationRounds int
	// DisableHedge turns off the backup attempt that normally fires when
	// a source runs past the p95 of its latency prior (used by
	// experiments to isolate the hedging win).
	DisableHedge bool
	reranker     *social.Reranker
}

// NewSession opens a session for the given user profile (stored into the
// agora's profile store).
func (a *Agora) NewSession(p *profile.Profile) *Session {
	a.Profiles.Put(p)
	return &Session{
		agora:             a,
		Profile:           p.Clone(),
		Detector:          ctxmodel.NewDetector(20),
		Ledger:            qos.NewReputationLedger(0.98, 32),
		Inbox:             feedsys.NewInbox(256, 0),
		learner:           profile.NewLearner(),
		rng:               a.kernel.Stream("session/" + p.UserID),
		latencyObs:        make(map[string][]float64),
		Gamma:             0.4,
		Beta:              0,
		MaxSources:        4,
		NegotiationRounds: 16,
		reranker:          social.NewReranker(a.Graph, a.ACL, a.Profiles),
	}
}

// Answer is the outcome of one Ask.
type Answer struct {
	Results   []query.Result
	Contracts []*qos.Contract
	Outcomes  []qos.Outcome
	Delivered qos.Vector
	// PlanScore is the optimizer's predicted utility for the chosen plan.
	PlanScore float64
	// ContextLabel is the profile variant that was active.
	ContextLabel string
	// Negotiated reports how many sources required multi-round bargaining.
	Negotiated int
	Rounds     int
	// TraceID identifies this ask's distributed trace (zero when telemetry
	// is disabled); look it up via Registry.TraceByID or /debug/trace?id=.
	TraceID telemetry.TraceID
}

// Session errors.
var (
	ErrNoProviders = errors.New("core: no providers could be contracted")
)

// Ask runs the full pipeline on an AQL string. The optional concept vector
// is the query-by-example payload (e.g. image features); nil falls back to
// the user's interests.
func (s *Session) Ask(aql string, concept feature.Vector) (*Answer, error) {
	q, err := query.Parse(aql)
	if err != nil {
		return nil, err
	}
	return s.AskQuery(q, concept)
}

// Partial is one progressive per-source delivery during an Ask: each
// contracted source's results reach the caller as that source settles, so
// the user can "react immediately if something significant is found" (§9)
// instead of waiting for the full fusion.
type Partial struct {
	Source    string
	Results   []query.Result
	Delivered qos.Vector
	// SourcesDone / SourcesPlanned report progress through the plan.
	SourcesDone    int
	SourcesPlanned int
}

// AskProgressive is Ask with a progressive-delivery callback: onPartial is
// invoked on the asking goroutine as each contracted source settles, in
// plan order with SourcesDone counting up, with that source's raw ranked
// results; the returned Answer is still the fully fused, personalized final
// ranking.
func (s *Session) AskProgressive(aql string, concept feature.Vector, onPartial func(Partial)) (*Answer, error) {
	q, err := query.Parse(aql)
	if err != nil {
		return nil, err
	}
	return s.askPipeline(q, concept, onPartial)
}

// AskQuery runs the pipeline on a parsed query.
func (s *Session) AskQuery(q *query.Query, concept feature.Vector) (*Answer, error) {
	return s.askPipeline(q, concept, nil)
}

// askPipeline wraps the pipeline run with telemetry: one `ask` trace per
// query (spans: plan → negotiate(source) → execute(source) → merge), the
// ask counter, and the end-to-end latency histogram. With telemetry
// disabled every instrument is a nil no-op.
//
// A sequential ask is several hundred microseconds that never block and
// allocate too little to meet a collection often, and sessions issue asks
// back to back. On a one-processor runtime nothing else — a ticker, a
// listener, another session — would run until the runtime's forced
// preemption some 20 ms later, and then behind a signal. So the ask yields
// once as it returns: whatever became runnable during it is served at ask
// granularity. With nothing waiting the yield is one pass through the
// scheduler.
func (s *Session) askPipeline(q *query.Query, concept feature.Vector, onPartial func(Partial)) (*Answer, error) {
	tel := &s.agora.tel
	elapsed := stopwatch()
	tr := tel.reg.StartTrace("ask", q.Text)
	ans, err := s.runPipeline(tr, q, concept, onPartial)
	tel.asks.Inc()
	if err != nil {
		tel.askErrors.Inc()
		tr.Fail(err)
	}
	if ans != nil {
		ans.TraceID = tr.ID()
	}
	tel.askLat.ObserveExemplar(elapsed(), tr.ID())
	tr.Finish()
	runtime.Gosched()
	return ans, err
}

func (s *Session) runPipeline(tr *telemetry.Trace, q *query.Query, concept feature.Vector, onPartial func(Partial)) (*Answer, error) {
	tel := &s.agora.tel
	s.Detector.Observe(ctxmodel.ActionQuery)

	// 1. Contextualize: find the active profile variant.
	spPlan := tr.Span("plan", "")
	planElapsed := stopwatch()
	ctx := s.Detector.Infer(s.Context)
	label := s.Rules.Activate(ctx)
	interests, weights := s.Profile.ActiveView(label)

	// 2. Personalize: complete the query text from the profile, and blend
	// the query concept toward active interests.
	if s.CompleteQueries && q.Text != "" {
		q = s.completeQuery(q)
	}
	if len(concept) == 0 {
		if interests.Norm() > 0 {
			concept = interests.Clone()
		}
	} else if s.Gamma > 0 && interests.Norm() > 0 {
		concept = feature.Blend(concept, interests, s.Gamma*0.5)
	}

	// 3. Optimize: choose sources under uncertainty (candidates come from
	// overlay discovery when enabled).
	ests := s.estimates(tr, q, concept)
	if len(ests) == 0 {
		spPlan.Fail(ErrNoProviders)
		return nil, ErrNoProviders
	}
	obj := optimizer.Objective{Weights: weights, Risk: s.Profile.Risk, Budget: q.Want.Price}
	plan, err := optimizer.Best(ests, obj, s.MaxSources)
	if err != nil {
		spPlan.Fail(err)
		return nil, err
	}
	if len(plan.Sources) == 0 {
		spPlan.Fail(ErrNoProviders)
		return nil, ErrNoProviders
	}
	spPlan.End()
	tel.planLat.ObserveExemplar(planElapsed(), tr.ID())

	ans := &Answer{ContextLabel: label, PlanScore: obj.Score(plan),
		Contracts: make([]*qos.Contract, 0, len(plan.Sources)), Outcomes: make([]qos.Outcome, 0, len(plan.Sources))}
	// Every source is bargained with from a copy of one buyer.
	buyer := negotiate.Negotiator{Name: s.Profile.UserID, U: negotiate.BuyerUtility{W: weights},
		Reservation: 0.25, Tactic: s.buyerTactic(), Candidates: s.packageGrid(q)}

	// 4-6. Negotiate, execute, settle per source — one visit per planned
	// stall. Results come back in plan-order slots; shared state (ledger,
	// latency beliefs, answer aggregates) is applied here, once every
	// source has run, in plan order.
	lists := make([][]query.Result, 0, len(plan.Sources))
	var worstLatency time.Duration
	var totalPaid float64
	failed := map[string]bool{}
	apply := func(slots []sourceResult) {
		for i := range slots {
			r := &slots[i]
			if r.contract != nil {
				ans.Contracts = append(ans.Contracts, r.contract)
			}
			if r.span > worstLatency {
				worstLatency = r.span
			}
			if r.err != nil {
				failed[r.source] = true
				if r.contract != nil {
					// Cancelled: provider compensates per contract.
					totalPaid -= r.refund
					s.Ledger.RecordOutcome(r.source, qos.Outcome{Fulfilled: false, Shortfall: 1})
				}
				continue
			}
			ans.Rounds += r.rounds
			if r.rounds > 1 {
				ans.Negotiated++
			}
			if r.settled {
				ans.Outcomes = append(ans.Outcomes, r.outcome)
				totalPaid += r.outcome.NetPaid
				s.Ledger.RecordOutcome(r.source, r.outcome)
				s.observeLatency(r.source, r.delivered.Latency)
			}
			lists = append(lists, r.results)
		}
	}
	apply(s.visit(tr, q, concept, plan.Sources, &buyer, nil, onPartial))
	if len(lists) == 0 {
		// 6b. Mid-flight re-optimization: everything failed; try once more
		// with the failures excluded.
		plan2, rerr := optimizer.Reoptimize(ests, failed, 0, obj, s.MaxSources)
		if rerr != nil || len(plan2.Sources) == 0 {
			return nil, ErrNoProviders
		}
		apply(s.visit(tr, q, concept, plan2.Sources, &buyer, failed, nil))
		if len(lists) == 0 {
			return nil, ErrNoProviders
		}
	}
	// Advance the virtual clock once, by the slowest stall: the market
	// trip costs as much as the slowest vendor visited, not the sum.
	s.agora.advance(worstLatency)

	// 7. Fuse and personalize the ranking.
	spMerge := tr.Span("merge", "")
	mergeElapsed := stopwatch()
	merged := query.Merge(lists, q.TopK*3)
	for i := range merged {
		r := &merged[i]
		// The term counts come from the index the result was found in.
		boost := s.Profile.TermBoost()
		r.Terms(boost.Add)
		r.Score = s.Profile.PersonalScore(r.Score, r.Doc.Concept, s.Gamma) * boost.Value()
	}
	query.SortResults(merged)

	// 8. Socialize: blend in the accessible circle's interests.
	if s.Beta > 0 {
		items := make([]social.Item, len(merged))
		for i, r := range merged {
			items[i] = social.Item{ID: r.Doc.ID, Score: r.Score, Concept: r.Doc.Concept}
		}
		ranked := s.reranker.Rerank(s.Profile, items, s.Beta)
		byID := make(map[string]query.Result, len(merged))
		for _, r := range merged {
			byID[r.Doc.ID] = r
		}
		merged = merged[:0]
		for _, it := range ranked {
			r := byID[it.ID]
			r.Score = it.Score
			merged = append(merged, r)
		}
	}
	if len(merged) > q.TopK {
		merged = merged[:q.TopK]
	}
	ans.Results = merged
	spMerge.End()
	tel.mergeLat.ObserveExemplar(mergeElapsed(), tr.ID())

	// Delivered aggregate QoS.
	now := s.agora.now()
	ans.Delivered = qos.Vector{
		Latency:      worstLatency,
		Completeness: 0, // callers with ground truth compute this
		Freshness:    query.MaxStaleness(merged, int64(now)),
		Trust:        s.meanTrust(ans.Contracts),
		Price:        totalPaid,
	}
	return ans, nil
}

func (s *Session) meanTrust(contracts []*qos.Contract) float64 {
	if len(contracts) == 0 {
		return 0
	}
	var sum float64
	for _, c := range contracts {
		sum += s.Ledger.Trust(c.Provider)
	}
	return sum / float64(len(contracts))
}

// estimates builds optimizer inputs for the candidate sources (discovered
// via the overlay when decentralized discovery is enabled, the full
// registry otherwise), using the consumer's learned trust and latency
// beliefs. The discovery concept steers semantic routing; the overlay
// probe records its forwarding hops as spans of tr.
func (s *Session) estimates(tr *telemetry.Trace, q *query.Query, concept feature.Vector) []optimizer.SourceEstimate {
	var total int
	names := s.agora.DiscoverTraced(s.Profile.UserID, concept, tr)
	for _, name := range names {
		n := s.agora.Node(name)
		if len(q.Topics) == 0 {
			total += n.TotalDocs()
		} else {
			for _, t := range q.Topics {
				total += n.TopicCount(t)
			}
		}
	}
	out := make([]optimizer.SourceEstimate, 0, len(names))
	for _, name := range names {
		n := s.agora.Node(name)
		if s.Ledger.Blacklisted(name, 0.25, 8) {
			continue // the greengrocer rule: shop elsewhere
		}
		// Thompson sampling over the trust posterior: instead of the
		// posterior mean we draw one plausible trust value per decision.
		// Sources with little evidence sample widely and keep getting
		// explored; well-observed shirkers concentrate low and are
		// exploited away — no separate exploration knob needed.
		belief := s.Ledger.Belief(name)
		sampled := belief.Sample(s.rng)
		trust := uncertainty.PriorBelief(sampled, belief.Strength()+2)
		lat := s.latencyPrior(name)
		out = append(out, n.EstimateFor(q.Topics, total, trust, lat))
	}
	return out
}

func (s *Session) latencyPrior(source string) uncertainty.Interval {
	obs := s.latencyObs[source]
	if len(obs) == 0 {
		return uncertainty.MakeInterval(0.05, 2.0) // wide prior, seconds
	}
	lo, hi := obs[0], obs[0]
	for _, x := range obs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return uncertainty.MakeInterval(lo, hi)
}

func (s *Session) observeLatency(source string, d time.Duration) {
	obs := append(s.latencyObs[source], d.Seconds())
	if len(obs) > 16 {
		obs = obs[len(obs)-16:]
	}
	s.latencyObs[source] = obs
}

// attemptFate is the pre-drawn randomness for one execution attempt at a
// provider: whether it responds, how long it takes, and whether it honors
// the contract (shirking adds the extra delay). All four draws are consumed
// unconditionally so the session's random stream advances by a fixed amount
// per attempt regardless of the outcome — every fate of a plan is drawn, in
// plan order, before the first source runs.
type attemptFate struct {
	available bool
	latency   time.Duration
	honored   bool
	extra     time.Duration
}

// span returns how long the attempt keeps the consumer waiting: shirked
// deliveries arrive late by the extra draw.
func (f attemptFate) span() time.Duration {
	if f.honored {
		return f.latency
	}
	return f.latency + f.extra
}

// sourceFate bundles a source's primary attempt with its hedging policy: a
// backup attempt fires immediately when the primary is unreachable
// (connection failures are detected instantly) or at hedgeAt — the p95 of
// the consumer's latency prior — when the primary runs long. Past deadline
// the consumer abandons the source entirely and claims the cancellation
// compensation.
type sourceFate struct {
	primary  attemptFate
	hedge    *attemptFate
	hedgeAt  time.Duration
	deadline time.Duration
}

// resolved is the outcome of playing a sourceFate forward in virtual time.
type resolved struct {
	attempt  attemptFate   // the winning attempt (zero when err != nil)
	span     time.Duration // effective wait for this source
	hedged   bool
	hedgeWon bool
	timedOut bool
	err      error
}

func (f sourceFate) resolve(name string) resolved {
	r := resolved{hedged: f.hedge != nil}
	type finisher struct {
		at    attemptFate
		end   time.Duration
		hedge bool
	}
	var buf [2]finisher
	cands := buf[:0]
	if f.primary.available {
		cands = append(cands, finisher{f.primary, f.primary.span(), false})
	}
	if f.hedge != nil && f.hedge.available {
		start := f.hedgeAt
		if !f.primary.available {
			start = 0
		}
		cands = append(cands, finisher{*f.hedge, start + f.hedge.span(), true})
	}
	if len(cands) == 0 {
		r.err = fmt.Errorf("core: %s unavailable", name)
		return r
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.end < best.end {
			best = c
		}
	}
	if best.end > f.deadline {
		r.span = f.deadline
		r.timedOut = true
		r.err = fmt.Errorf("core: %s exceeded deadline %v", name, f.deadline)
		return r
	}
	r.attempt = best.at
	r.span = best.end
	r.hedgeWon = best.hedge
	return r
}

// minHedgeTrigger floors the hedge trigger (and thus the deadline) so a
// freshly narrowed latency prior cannot strangle a source that merely
// jittered once.
const minHedgeTrigger = 25 * time.Millisecond

// drawFate draws the full per-source fate from the session stream: the
// primary attempt, the hedge trigger and deadline derived from the latency
// prior, and — when the primary would trip the trigger — the backup attempt.
func (s *Session) drawFate(node *Node) sourceFate {
	prior := s.latencyPrior(node.Name)
	p95 := time.Duration((prior.Lo + 0.95*prior.Width()) * float64(time.Second))
	if p95 < minHedgeTrigger {
		p95 = minHedgeTrigger
	}
	f := sourceFate{primary: s.drawAttempt(node), hedgeAt: p95, deadline: 2 * p95}
	if !s.DisableHedge && (!f.primary.available || f.primary.span() > p95) {
		h := s.drawAttempt(node)
		f.hedge = &h
	}
	return f
}

func (s *Session) drawAttempt(node *Node) attemptFate {
	return attemptFate{
		available: node.available(s.rng),
		latency:   node.sampleLatency(s.rng),
		honored:   sim.Bernoulli(s.rng, node.Behavior.Reliability),
		extra:     node.sampleLatency(s.rng),
	}
}

// sourceJob is one planned source, its pre-drawn fate, and contract
// identifiers pre-minted in plan order.
type sourceJob struct {
	node    *Node
	fate    sourceFate
	slaID   string
	queryID string
}

// sourceResult is everything one source's visit produced. A visit touches
// no session state beyond telemetry; the pipeline applies these in plan
// order once every source has run.
type sourceResult struct {
	source    string
	contract  *qos.Contract
	rounds    int
	results   []query.Result
	delivered qos.Vector
	outcome   qos.Outcome
	settled   bool
	refund    float64
	span      time.Duration
	err       error
}

// visit runs negotiate→execute→settle for every planned source, one after
// another on the asking goroutine, and returns plan-order slots. skip drops
// sources that already failed (the re-optimization round). Every fate and
// contract identifier is drawn before the first source runs; onPartial
// fires as each source settles.
func (s *Session) visit(tr *telemetry.Trace, q *query.Query, concept feature.Vector, ests []optimizer.SourceEstimate, buyer *negotiate.Negotiator, skip map[string]bool, onPartial func(Partial)) []sourceResult {
	jobs := make([]sourceJob, 0, len(ests))
	for _, est := range ests {
		if skip != nil && skip[est.Source] {
			continue
		}
		node := s.agora.Node(est.Source)
		if node == nil {
			continue
		}
		jobs = append(jobs, sourceJob{
			node:    node,
			fate:    s.drawFate(node),
			slaID:   s.agora.nextID("sla"),
			queryID: s.agora.nextID("q"),
		})
	}
	now0 := s.agora.now()
	slots := make([]sourceResult, len(jobs))
	for i, job := range jobs {
		slots[i] = s.runSource(tr, q, concept, buyer, job, now0)
		if r := &slots[i]; onPartial != nil && r.err == nil {
			onPartial(Partial{
				Source:         r.source,
				Results:        r.results,
				Delivered:      r.delivered,
				SourcesDone:    i + 1,
				SourcesPlanned: len(ests),
			})
		}
	}
	return slots
}

// runSource is one source's visit: negotiate a contract, play its fate
// forward (hedging past the p95 trigger, abandoning past the deadline),
// execute the winning attempt, and settle.
func (s *Session) runSource(tr *telemetry.Trace, q *query.Query, concept feature.Vector, buyer *negotiate.Negotiator, job sourceJob, now0 sim.Time) sourceResult {
	tel := &s.agora.tel
	res := sourceResult{source: job.node.Name}
	contract, deal, err := s.negotiateTraced(tr, job.node, buyer, job.slaID, job.queryID, now0)
	if err != nil {
		res.err = err
		return res
	}
	res.contract, res.rounds = contract, deal.Rounds

	out := job.fate.resolve(job.node.Name)
	if out.hedged {
		tel.hedges.Inc()
		if out.hedgeWon {
			tel.hedgeWins.Inc()
		}
	}
	if out.timedOut {
		tel.deadlineTimeouts.Inc()
	}
	res.span = out.span
	if out.err != nil {
		tr.Span("execute", job.node.Name).Fail(out.err)
		tel.executeFailures.Inc()
		if fee, cerr := contract.Cancel(); cerr == nil {
			res.refund = fee
		}
		res.err = out.err
		return res
	}
	res.results, res.delivered = s.executeTraced(tr, job.node, q, concept, contract, out, now0)
	if o, serr := contract.Settle(res.delivered); serr == nil {
		res.outcome = o
		res.settled = true
	}
	return res
}

// negotiateTraced runs negotiateContract inside a `negotiate(source)` span,
// feeding the negotiation histogram and failure counter. It touches no
// session state.
func (s *Session) negotiateTraced(tr *telemetry.Trace, node *Node, buyer *negotiate.Negotiator, slaID, queryID string, now sim.Time) (*qos.Contract, negotiate.Deal, error) {
	tel := &s.agora.tel
	sp := tr.Span("negotiate", node.Name)
	elapsed := stopwatch()
	contract, deal, err := s.negotiateContract(node, buyer, slaID, queryID, now)
	if err != nil {
		sp.Fail(err)
		tel.negotiateFailures.Inc()
		return nil, deal, err
	}
	sp.End()
	tel.negotiateLat.ObserveExemplar(elapsed(), tr.ID())
	return contract, deal, nil
}

// executeTraced runs the winning attempt inside an `execute(source)` span:
// it evaluates the subquery against the node's store and degrades the
// delivery when the node shirks. The provider's latency is virtual: it is
// the attempt's span, priced into the delivery, not waited out.
func (s *Session) executeTraced(tr *telemetry.Trace, node *Node, q *query.Query, concept feature.Vector, c *qos.Contract, out resolved, now0 sim.Time) ([]query.Result, qos.Vector) {
	tel := &s.agora.tel
	detail := node.Name
	if out.hedgeWon {
		detail += " (hedge)"
	}
	sp := tr.Span("execute", detail)
	elapsed := stopwatch()
	sub := *q
	sub.TopK = q.TopK * 2 // sources over-deliver; fusion trims
	results := query.Execute(node.Store, &sub, concept, int64(now0))
	if !out.attempt.honored && len(results) > 1 {
		// Shirk: deliver only half, late (the fate already priced the
		// lateness into span).
		results = results[:len(results)/2]
	}
	// Delivered completeness relative to the promise: we proxy by how much
	// of its own corpus promise the node returned (full pool = promised).
	deliveredComp := c.Promised.Completeness
	if !out.attempt.honored {
		deliveredComp = c.Promised.Completeness / 2
	}
	delivered := qos.Vector{
		Latency:      out.span,
		Completeness: deliveredComp,
		Freshness:    query.MaxStaleness(results, int64(now0)),
		Trust:        c.Promised.Trust,
		Price:        c.Promised.Price,
	}
	sp.End()
	tel.executeLat.ObserveExemplar(elapsed(), tr.ID())
	return results, delivered
}

// negotiateContract bargains a package with the node, starting from a copy
// of the ask's buyer, and signs an SLA.
func (s *Session) negotiateContract(node *Node, buyer *negotiate.Negotiator, slaID, queryID string, now sim.Time) (*qos.Contract, negotiate.Deal, error) {
	b, seller := *buyer, node.seller(buyer.Candidates)
	deal, err := negotiate.Run(&b, &seller, s.NegotiationRounds)
	if err != nil {
		return nil, deal, err
	}
	c := &qos.Contract{
		ID:          slaID,
		QueryID:     queryID,
		Consumer:    s.Profile.UserID,
		Provider:    node.Name,
		Promised:    deal.Package,
		Premium:     node.Econ.Premium,
		PenaltyRate: node.Econ.PenaltyRate,
	}
	if err := c.Sign(now); err != nil {
		return nil, deal, err
	}
	return c, deal, nil
}

// completeQuery appends up to two strongly-liked profile terms that the
// query doesn't already mention, returning a copy.
func (s *Session) completeQuery(q *query.Query) *query.Query {
	present := make(map[string]bool)
	for _, t := range feature.Tokenize(q.Text) {
		present[t] = true
	}
	added := 0
	cp := *q
	for _, term := range s.Profile.TopTerms(8) {
		if added == 2 {
			break
		}
		if s.Profile.TermAffinity[term] <= 0.3 || present[term] {
			continue
		}
		cp.Text += " " + term
		added++
	}
	return &cp
}

// buyerTactic maps the profile's negotiation style onto a tactic.
func (s *Session) buyerTactic() negotiate.Tactic {
	switch s.Profile.Style.Tactic {
	case "boulware":
		return negotiate.Boulware()
	case "conceder":
		return negotiate.Conceder()
	case "tit-for-tat":
		return negotiate.TitForTat{Reciprocity: 0.5 + s.Profile.Style.Aggressiveness}
	default:
		return negotiate.Linear()
	}
}

// packageGrid builds the negotiable package space for a query.
func (s *Session) packageGrid(q *query.Query) []qos.Vector {
	template := qos.Vector{Latency: time.Second, Trust: 0.8}
	if q.Want.Latency > 0 {
		template.Latency = q.Want.Latency
	}
	if q.Want.Freshness > 0 {
		template.Freshness = q.Want.Freshness
	}
	comp := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	prices := []float64{0.5, 1, 1.5, 2, 3, 4, 6}
	return negotiate.CandidateGrid(template, comp, prices)
}

// Feedback lets the application report user reactions; the session learns
// the profile and stores the update.
func (s *Session) Feedback(events []profile.Event) {
	s.learner.ObserveAll(s.Profile, events)
	s.agora.Profiles.Put(s.Profile)
}

// Browse returns the freshest documents at a named source (the browsing
// modality), recording the action for context detection.
func (s *Session) Browse(source string, k int) ([]*docstore.Document, error) {
	s.Detector.Observe(ctxmodel.ActionBrowse)
	node := s.agora.Node(source)
	if node == nil {
		return nil, fmt.Errorf("core: unknown source %q", source)
	}
	if !node.available(s.rng) {
		return nil, fmt.Errorf("core: %s unavailable", source)
	}
	s.agora.advance(node.sampleLatency(s.rng))
	return node.Store.Freshest(k), nil
}

// Subscribe establishes a standing feed subscription matched against all
// future ingests, delivering into the session's inbox.
func (s *Session) Subscribe(terms []string, concept feature.Vector, threshold float64) (string, error) {
	id := s.agora.nextID("sub")
	err := s.agora.Feeds.Subscribe(&feedsys.Subscription{
		ID: id, Owner: s.Profile.UserID,
		Terms: terms, Concept: concept, Threshold: threshold,
		Deliver: func(it feedsys.Item) {
			s.Detector.Observe(ctxmodel.ActionFeedRead)
			s.Inbox.Deliver(it)
		},
	})
	if err != nil {
		return "", err
	}
	return id, nil
}

// Unsubscribe cancels a standing subscription.
func (s *Session) Unsubscribe(id string) error { return s.agora.Feeds.Unsubscribe(id) }

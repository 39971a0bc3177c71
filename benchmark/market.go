package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

const (
	numSources    = 8
	numSessions   = 32
	feedbackEvery = 8 // asks between one session's click feedback
)

// market is market_ask: the paper's pipeline — interpret, personalize,
// optimize, negotiate, execute, settle, fuse — over in-process source
// nodes, with click feedback as the market's write beside its read. The
// TCP tier takes no part.
type market struct {
	cfg  config
	docs int
	asks int // asks per round

	loaded
	reg      *telemetry.Registry
	agora    *core.Agora
	sessions []*core.Session
	n        int // asks issued
}

func newMarket(cfg config) *market {
	mk := &market{cfg: cfg, docs: 8192, asks: 256}
	if cfg.quick {
		mk.docs, mk.asks = 2048, 64
	}
	return mk
}

func (mk *market) setup() error {
	mk.in = newInputs(mk.cfg.seed, mk.docs, 0, numSessions, 0)
	mk.reg = telemetry.NewRegistry()
	mk.agora = core.New(core.Config{Seed: mk.cfg.seed, ConceptDim: conceptDim, Telemetry: mk.reg})
	// Default providers, except that they always respond and never jitter:
	// with the default 2% unavailability and lognormal latency about one
	// ask in 16 000 finds no provider, and a workload may not fail. One
	// delivery in ten is still shirked, so hedging stays on the path.
	behavior := core.DefaultBehavior()
	behavior.Availability = 1
	behavior.LatencyJitter = 0

	for i, list := range mk.in.gen.AssignToSources(mk.in.corpus, numSources, 0.7) {
		node, err := mk.agora.AddNode(workload.SourceName(i), core.DefaultEconomics(), behavior)
		if err != nil {
			return err
		}
		batch := docsOf(list)
		t0 := time.Now()
		if err := node.IngestBatch(batch); err != nil {
			return err
		}
		mk.loadSeconds += time.Since(t0).Seconds()
		mk.loadDocs += len(batch)
	}
	// The generator draws each user's QoS archetype and risk attitude at
	// random; 32 draws leave the mix, and with it the sources a plan buys
	// (1.7 to 2.7 per ask between seeds), to the seed. Deal them out evenly.
	risks := []uncertainty.RiskAttitude{uncertainty.Neutral(), uncertainty.Averse(1), uncertainty.Seeking(0.5)}
	for i, u := range mk.in.users {
		p := profile.New(u.ID, conceptDim)
		p.Interests = u.Concept.Clone()
		p.Weights = workload.Archetype(i % 4).Weights()
		p.Risk = risks[i/4%len(risks)]
		mk.sessions = append(mk.sessions, mk.agora.NewSession(p))
	}
	return nil
}

// hostProbe: eight 1k-document stores stay in cache, so what the neighbours
// take from this workload is the core, not the cache (see hostspeed.go).
func (mk *market) hostProbe() probeKind { return computeProbe }

func (mk *market) round(rec *recorder) error {
	g := mk.in.gen
	for i := 0; i < mk.asks; i++ {
		sweep, who := mk.n/numSessions, mk.n%numSessions
		mk.n++
		sess, user := mk.sessions[who], mk.in.users[who]
		// Queries come fresh from the generator's stream: a pool would
		// wrap, and a repeated ask hits the session's execute memo.
		text, concept, _ := g.QueryFor(user)
		aql := fmt.Sprintf(`FIND documents WHERE text ~ "%s" TOP %d`, text, topK)

		t0 := time.Now()
		ans, err := sess.Ask(aql, concept)
		d := time.Since(t0)
		ok := err == nil && len(ans.Results) > 0
		rec.ask(d, ok)
		if !ok {
			continue
		}
		rec.counts["core.sources"] += float64(len(ans.Contracts))
		rec.counts["core.negotiated"] += float64(ans.Negotiated)
		rec.counts["core.rounds"] += float64(ans.Rounds)
		if rec.tr != nil {
			mk.replay(rec.tr, sess, aql, concept, ans, t0, d)
		}
		// Every session clicks after its every 8th ask, staggered so each
		// sweep over the sessions carries the same share of feedback.
		if (sweep+who)%feedbackEvery != feedbackEvery-1 {
			continue
		}
		events := make([]profile.Event, 0, 3)
		for _, r := range ans.Results[:min(3, len(ans.Results))] {
			events = append(events, profile.Event{
				Type: profile.EventClick, Concept: r.Doc.Concept, Terms: r.Doc.Tokens(),
				Source: r.Source, Satisfied: true,
			})
		}
		f0 := time.Now()
		sess.Feedback(events)
		fd := time.Since(f0)
		rec.observe("profile.feedback", fd)
		rec.op(true)
		if rec.tr != nil {
			rec.tr.add("profile.feedback", rootSpan, rec.tr.nextAsk(), f0, fd)
		}
	}
	return nil
}

// replay repeats the stages of one ask that have a public entry point:
// parsing, plan search over every source's estimate, and the subquery at
// each contracted source. What is left of the ask is core's own.
func (mk *market) replay(tr *tracer, sess *core.Session, aql string, concept []float64, ans *core.Answer, t0 time.Time, d time.Duration) {
	opID := tr.nextAsk()
	root := tr.add("core.ask", rootSpan, opID, t0, d)
	var q *query.Query
	tr.timed("query.parse", root, opID, func() { q, _ = query.Parse(aql) })
	if q == nil {
		return
	}
	names := mk.agora.Nodes()
	total := 0
	for _, name := range names {
		total += mk.agora.Node(name).TotalDocs()
	}
	ests := make([]optimizer.SourceEstimate, 0, len(names))
	for _, name := range names {
		ests = append(ests, mk.agora.Node(name).EstimateFor(q.Topics, total,
			sess.Ledger.Belief(name), uncertainty.MakeInterval(0.05, 2.0)))
	}
	obj := optimizer.Objective{Weights: sess.Profile.Weights, Risk: sess.Profile.Risk, Budget: q.Want.Price}
	tr.timed("optimizer.best", root, opID, func() { optimizer.Best(ests, obj, sess.MaxSources) })
	sub := *q
	sub.TopK = q.TopK * 2 // as the session over-asks each source
	for _, c := range ans.Contracts {
		node := mk.agora.Node(c.Provider)
		tr.timed("query.execute", root, opID, func() { query.Execute(node.Store, &sub, concept, 0) })
	}
}

func (mk *market) counters() map[string]float64 {
	m := map[string]float64{}
	addSnapshot(m, mk.reg.Snapshot())
	return m
}

func (mk *market) layers(m map[string]float64, un *recorder, delta map[string]float64, tr *recorder) {
	asks := float64(len(un.asks))
	for _, stage := range []string{"plan", "negotiate", "execute", "merge"} {
		h := "core." + stage + ".latency"
		m["core."+stage+"_us"] = 1e6 * ratio(delta[h+".sum"], delta[h+".count"])
	}
	m["core.sources_per_ask"] = un.counts["core.sources"] / asks
	m["core.negotiated_per_ask"] = un.counts["core.negotiated"] / asks
	m["core.rounds_per_ask"] = un.counts["core.rounds"] / asks
	m["core.exec_cache_hit_ratio"] = ratio(delta["core.execute.cache.hits"], delta["core.execute.cache.hits"]+delta["core.execute.cache.misses"])
	m["core.hedges_per_ask"] = delta["core.execute.hedges"] / asks
	m["profile.feedback_us"] = us(percentile(un.series["profile.feedback"], 50))
	if tr.tr == nil {
		return
	}
	dur, self := tr.tr.durations()
	m["core.ask_self_us"] = us(percentile(self["core.ask"], 50))
	m["query.parse_us"] = us(percentile(dur["query.parse"], 50))
	m["query.execute_us"] = us(percentile(dur["query.execute"], 50))
	m["optimizer.best_us"] = us(percentile(dur["optimizer.best"], 50))
}

// verify has nothing to add: every ask was checked as it returned (no
// error, a non-empty answer).
func (mk *market) verify(map[string]float64) (int, int, error) { return 0, 0, nil }

func (mk *market) close() error {
	if mk.agora == nil {
		return nil
	}
	var first error
	for _, name := range mk.agora.Nodes() {
		if err := mk.agora.Node(name).Store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

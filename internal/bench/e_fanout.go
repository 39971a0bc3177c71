package bench

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/qos"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// E21ParallelFanout measures the market trip in virtual time: a consumer
// asks a seeded market of 2, 4 and 8 sources the same questions, and each
// answer yields two figures: the sum of its settled sources' delivery spans
// (what visiting the stalls one after another would cost) and its delivered
// latency, the slowest span (what the agora charges: the trip costs as much
// as the slowest stall, not the sum). The p50 ratio at each source count is
// the headline. The experiment also cross-checks determinism (two fresh
// worlds at the same seed must answer item for item alike) and isolates the
// hedging win on a fat-tailed market by comparing delivered-latency p95
// with the backup attempt disabled and enabled.
func E21ParallelFanout(seed int64, scale float64) *Result {
	asks := scaleInt(16, scale, 6)
	nDocs := scaleInt(800, scale, 200)

	type run struct {
		answers []*core.Answer
		// Pipeline counters: sources abandoned at their deadline, and
		// backup attempts fired / won.
		timeouts, hedges, hedgeWins uint64
	}
	runWorkload := func(worldSeed int64, nSources int, jitter float64, disableHedge bool, asks int) run {
		reg := telemetry.NewRegistry()
		a := core.New(core.Config{Seed: worldSeed, ConceptDim: 32, Telemetry: reg})
		g := workload.NewGenerator(worldSeed, 32, 4)
		docs := g.GenCorpus(nDocs, 1.2, int64(24*time.Hour))
		beh := core.DefaultBehavior()
		beh.LatencyJitter = jitter
		for i, list := range g.AssignToSources(docs, nSources, 0.7) {
			node, err := a.AddNode(workload.SourceName(i), core.DefaultEconomics(), beh)
			if err != nil {
				panic(err)
			}
			for _, d := range list {
				if err := node.Ingest(d.Doc); err != nil {
					panic(err)
				}
			}
		}
		u := g.GenUsers(1)[0]
		p := profile.New(u.ID, 32)
		p.Interests = u.Concept.Clone()
		// Completeness-hungry, price-insensitive weights so the optimizer
		// plans all nSources at every seed — the experiment measures the
		// market trip, not the (seed-dependent) archetype's plan-size choice.
		p.Weights = qos.Weights{Latency: 1, Completeness: 5, Freshness: 1, Trust: 1, Price: 0.2}
		s := a.NewSession(p)
		s.MaxSources = nSources
		s.DisableHedge = disableHedge
		out := run{}
		for qi := 0; qi < asks; qi++ {
			topic := g.Topics[qi%len(g.Topics)]
			aql := fmt.Sprintf(`FIND documents WHERE topic = %q TOP 10`, topic.Name)
			ans, err := s.Ask(aql, topic.Center)
			if err != nil {
				continue
			}
			out.answers = append(out.answers, ans)
		}
		snap := reg.Snapshot()
		out.timeouts = snap.Counters["core.execute.deadline_timeouts"]
		out.hedges = snap.Counters["core.execute.hedges"]
		out.hedgeWins = snap.Counters["core.execute.hedge_wins"]
		return out
	}

	pct := func(xs []float64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		i := int(p * float64(len(s)-1))
		return s[i]
	}

	table := metrics.NewTable("E21: sources visited one after another vs the market trip (virtual time)",
		"sources", "seq p50 ms", "par p50 ms", "speedup", "deterministic")
	headline := map[string]float64{}
	deterministic := 1.0
	for _, n := range []int{2, 4, 8} {
		r := runWorkload(seed, n, 0.3, false, asks)
		again := runWorkload(seed, n, 0.3, false, asks)
		same := len(r.answers) == len(again.answers)
		for i := 0; same && i < len(r.answers); i++ {
			same = reflect.DeepEqual(r.answers[i].Results, again.answers[i].Results) &&
				r.answers[i].Delivered == again.answers[i].Delivered
		}
		if !same {
			deterministic = 0
		}
		var summed, trip []float64
		for _, ans := range r.answers {
			var sum time.Duration
			for _, o := range ans.Outcomes {
				sum += o.Delivered.Latency
			}
			summed = append(summed, sum.Seconds()*1e3)
			trip = append(trip, ans.Delivered.Latency.Seconds()*1e3)
		}
		seqP50, parP50 := pct(summed, 0.5), pct(trip, 0.5)
		speedup := 0.0
		if parP50 > 0 {
			speedup = seqP50 / parP50
		}
		table.AddRow(fmt.Sprint(n), seqP50, parP50, speedup, deterministic)
		headline[fmt.Sprintf("speedup_p50_%dsrc", n)] = speedup
		if n == 4 {
			headline["seq_p50_ms_4src"] = seqP50
			headline["par_p50_ms_4src"] = parP50
		}
	}
	headline["deterministic"] = deterministic

	// Hedging's win on a fat-tailed market (high latency jitter): the
	// per-source deadline (2× the prior's p95, active in both modes)
	// abandons any source whose winning attempt misses it, so the robust
	// measure of the backup attempt is how many abandonments it rescues —
	// a hedged source is only dropped when BOTH attempts miss. Delivered
	// latency p95 is reported alongside but hedge-on consumes extra rng
	// draws, so the two modes are different random worlds and that column
	// is distributional, pooled over several worlds with the warm-up asks
	// (wide prior, hedging dormant) discarded.
	tail := func(disable bool) (p95 float64, timeoutRate float64, hedges, wins uint64) {
		var lats []float64
		var timeouts, attempts uint64
		tailAsks := asks * 3
		warmup := tailAsks / 4
		for ws := int64(0); ws < 3; ws++ {
			r := runWorkload(seed+ws, 4, 0.9, disable, tailAsks)
			for i, ans := range r.answers {
				if i < warmup {
					continue
				}
				lats = append(lats, ans.Delivered.Latency.Seconds()*1e3)
			}
			timeouts += r.timeouts
			attempts += uint64(len(r.answers)) * 4
			hedges += r.hedges
			wins += r.hedgeWins
		}
		if attempts > 0 {
			timeoutRate = float64(timeouts) / float64(attempts)
		}
		return pct(lats, 0.95), timeoutRate, hedges, wins
	}
	offP95, offTimeout, _, _ := tail(true)
	onP95, onTimeout, hedges, wins := tail(false)
	rescued := 0.0
	if offTimeout > 0 {
		rescued = 1 - onTimeout/offTimeout
	}
	table.AddRow("4 (hedge off→on p95 ms)", offP95, onP95, rescued, deterministic)
	headline["hedge_off_p95_ms"] = offP95
	headline["hedge_on_p95_ms"] = onP95
	headline["hedge_off_timeout_rate"] = offTimeout
	headline["hedge_on_timeout_rate"] = onTimeout
	headline["hedge_rescued_frac"] = rescued
	headline["hedge_attempts"] = float64(hedges)
	headline["hedge_wins"] = float64(wins)

	return &Result{ID: "E21", Table: table, Headline: headline}
}

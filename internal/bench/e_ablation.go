package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/metrics"
	"repro/internal/negotiate"
	"repro/internal/profile"
	"repro/internal/qos"
	"repro/internal/workload"
)

// E15AuctionVsBilateral compares the two trading mechanisms the market
// supports: sealed-bid scoring auctions (one round, k bids) against
// best-of-k bilateral alternating-offers (k negotiations). Competition
// should help the buyer under both; the auction gets there with far fewer
// messages.
func E15AuctionVsBilateral(seed int64, scale float64) *Result {
	r := rand.New(rand.NewSource(seed + 7))
	trials := scaleInt(120, scale, 40)
	grid := negotiate.CandidateGrid(
		qos.Vector{Latency: time.Second, Trust: 0.8},
		[]float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		[]float64{0.5, 1, 1.5, 2, 3, 4, 6, 8},
	)
	buyerW := qos.Weights{Price: 2, Completeness: 3, Trust: 1, Latency: 1, Freshness: 1}
	mkBuyer := func() *negotiate.Negotiator {
		return &negotiate.Negotiator{
			Name: "buyer", U: negotiate.BuyerUtility{W: buyerW},
			Reservation: 0.3, Tactic: negotiate.Linear(), Candidates: grid,
		}
	}
	mkSellers := func(k int) []*negotiate.Negotiator {
		out := make([]*negotiate.Negotiator, k)
		for i := range out {
			out[i] = &negotiate.Negotiator{
				Name: fmt.Sprintf("s%02d", i),
				U: negotiate.SellerUtility{
					Cost:  negotiate.StandardCost(0.2+r.Float64()*0.8, 0.8+r.Float64()),
					Scale: 6,
				},
				Reservation: 0.05, Tactic: negotiate.Linear(), Candidates: grid,
			}
		}
		return out
	}

	table := metrics.NewTable("E15: auction vs best-of-k bilateral",
		"sellers", "mechanism", "buyer utility", "messages")
	headline := map[string]float64{}
	for _, k := range []int{1, 2, 4, 6} {
		var aucU, auc2U, bilU, aucMsgs, bilMsgs float64
		var aucN, bilN int
		for trial := 0; trial < trials; trial++ {
			sellers := mkSellers(k)
			if res, err := negotiate.RunAuction(negotiate.FirstScore, mkBuyer(), sellers, 0.3); err == nil {
				aucU += res.BuyerScore
				aucMsgs += float64(res.Participants + 1) // CFO + bids
				aucN++
			}
			if res2, err := negotiate.RunAuction(negotiate.SecondScore, mkBuyer(), sellers, 0.3); err == nil {
				auc2U += res2.BuyerScore
			}
			best := -1.0
			msgs := 0.0
			for _, s := range sellers {
				deal, err := negotiate.Run(mkBuyer(), s, 24)
				if err != nil {
					msgs += float64(deal.Rounds)
					continue
				}
				msgs += float64(deal.Rounds)
				if deal.BuyerUtility > best {
					best = deal.BuyerUtility
				}
			}
			if best >= 0 {
				bilU += best
				bilMsgs += msgs
				bilN++
			}
		}
		if aucN > 0 {
			table.AddRow(k, "auction (1st score)", aucU/float64(aucN), aucMsgs/float64(aucN))
			table.AddRow(k, "auction (2nd score)", auc2U/float64(aucN), aucMsgs/float64(aucN))
			headline[fmt.Sprintf("auction_%d", k)] = aucU / float64(aucN)
			headline[fmt.Sprintf("auction_msgs_%d", k)] = aucMsgs / float64(aucN)
		}
		if bilN > 0 {
			table.AddRow(k, "best-of-k bilateral", bilU/float64(bilN), bilMsgs/float64(bilN))
			headline[fmt.Sprintf("bilateral_%d", k)] = bilU / float64(bilN)
			headline[fmt.Sprintf("bilateral_msgs_%d", k)] = bilMsgs / float64(bilN)
		}
	}
	return &Result{ID: "E15", Table: table, Headline: headline}
}

// E16ReputationLearning ablates the greengrocer loop through the full
// pipeline: a persistent session whose ledger learns (and blacklists)
// versus memoryless sessions, facing identical good and shirking providers.
// Learning should push late-phase breach exposure well below the
// memoryless baseline.
func E16ReputationLearning(seed int64, scale float64) *Result {
	queries := scaleInt(60, scale, 24)
	phase := queries / 3

	build := func() (*core.Agora, *workload.Generator) {
		a := core.New(core.Config{Seed: seed, ConceptDim: 32})
		g := workload.NewGenerator(seed, 32, 4)
		docs := g.GenCorpus(400, 1.1, 0)
		good, _ := a.AddNode("good", core.DefaultEconomics(), core.DefaultBehavior())
		// The shirker is the *cheap* option: a trust-blind optimizer keeps
		// going back to it — exactly the stand with the stale vegetables.
		badEcon := core.DefaultEconomics()
		badEcon.CostBase = 0.1
		badEcon.CostEffort = 0.5
		badEcon.Premium = 1.0
		badBeh := core.DefaultBehavior()
		badBeh.Reliability = 0.15
		bad, _ := a.AddNode("bad", badEcon, badBeh)
		for _, d := range docs {
			d1 := d.Doc.Clone()
			d1.ID += "-g"
			if err := good.Ingest(d1); err != nil {
				panic(err)
			}
			d2 := d.Doc.Clone()
			d2.ID += "-b"
			if err := bad.Ingest(d2); err != nil {
				panic(err)
			}
		}
		return a, g
	}
	runPhaseBreaches := func(memory bool) (early, late float64) {
		a, g := build()
		var sess *core.Session
		mk := func() *core.Session {
			p := profile.New("iris", 32)
			p.Interests = g.Topics[0].Center.Clone()
			sess := a.NewSession(p)
			sess.MaxSources = 1 // exclusive choice: where to shop today
			return sess
		}
		sess = mk()
		var earlyB, earlyC, lateB, lateC int
		for qi := 0; qi < queries; qi++ {
			if !memory {
				sess = mk()
			}
			topic := g.Topics[qi%len(g.Topics)]
			ans, err := sess.Ask(fmt.Sprintf(`FIND documents WHERE topic = "%s" TOP 5`, topic.Name), topic.Center)
			if err != nil {
				continue
			}
			for _, out := range ans.Outcomes {
				isEarly := qi < phase
				isLate := qi >= queries-phase
				if out.Fulfilled {
					if isEarly {
						earlyC++
					}
					if isLate {
						lateC++
					}
				} else {
					if isEarly {
						earlyB++
						earlyC++
					}
					if isLate {
						lateB++
						lateC++
					}
				}
			}
		}
		if earlyC > 0 {
			early = float64(earlyB) / float64(earlyC)
		}
		if lateC > 0 {
			late = float64(lateB) / float64(lateC)
		}
		return early, late
	}

	// Average over a few seeds: phase-level breach rates on ~20 contracts
	// are noisy.
	var memEarly, memLate, noEarly, noLate float64
	const reps = 3
	baseSeed := seed
	for rep := 0; rep < reps; rep++ {
		seed = baseSeed + int64(rep)*101
		me, ml := runPhaseBreaches(true)
		ne, nl := runPhaseBreaches(false)
		memEarly += me / reps
		memLate += ml / reps
		noEarly += ne / reps
		noLate += nl / reps
	}
	seed = baseSeed
	table := metrics.NewTable("E16: reputation learning (greengrocer) ablation",
		"condition", "breach exposure (early third)", "breach exposure (late third)")
	table.AddRow("ledger persists (learning)", memEarly, memLate)
	table.AddRow("memoryless sessions", noEarly, noLate)
	return &Result{ID: "E16", Table: table, Headline: map[string]float64{
		"learning_early": memEarly, "learning_late": memLate,
		"memoryless_early": noEarly, "memoryless_late": noLate,
	}}
}

// E17LSHAblation sweeps feature.LSH's (tables, bits) parameters — the index
// feedsys's concept matcher files subscriptions in: recall@10 against an
// exact scan.
func E17LSHAblation(seed int64, scale float64) *Result {
	r := rand.New(rand.NewSource(seed + 8))
	nVecs := scaleInt(3000, scale, 800)
	nQueries := scaleInt(100, scale, 30)
	dim := 32
	vecs := make([]feature.Vector, nVecs)
	for i := range vecs {
		v := make(feature.Vector, dim)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		vecs[i] = v.Normalize()
	}
	queries := make([]feature.Vector, nQueries)
	for i := range queries {
		q := vecs[r.Intn(nVecs)].Clone()
		for j := range q {
			q[j] += r.NormFloat64() * 0.1
		}
		queries[i] = q.Normalize()
	}

	table := metrics.NewTable("E17: LSH index ablation (recall@10 vs exact scan)",
		"tables", "bits", "recall@10")
	headline := map[string]float64{}
	// Ground truth from one exact index.
	exact := feature.NewLSH(seed, dim, 1, 1)
	for i, v := range vecs {
		exact.Put(fmt.Sprintf("v%05d", i), v)
	}
	truth := make([]map[string]bool, nQueries)
	for qi, q := range queries {
		truth[qi] = map[string]bool{}
		for _, c := range exact.Scan(q, 10) {
			truth[qi][c.ID] = true
		}
	}
	for _, tb := range []int{2, 4, 8, 16} {
		for _, bits := range []int{6, 10, 14} {
			idx := feature.NewLSH(seed+int64(tb*100+bits), dim, tb, bits)
			for i, v := range vecs {
				idx.Put(fmt.Sprintf("v%05d", i), v)
			}
			hits := 0
			for qi, q := range queries {
				for _, c := range idx.Query(q, 10) {
					if truth[qi][c.ID] {
						hits++
					}
				}
			}
			recall := float64(hits) / float64(nQueries*10)
			table.AddRow(tb, bits, recall)
			headline[fmt.Sprintf("recall_%dx%d", tb, bits)] = recall
		}
	}
	return &Result{ID: "E17", Table: table, Headline: headline}
}

package bench

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// E1FeatureMatching sweeps the feature sets used to match queries against a
// multimedia corpus — the paper's "are the typical visible features enough,
// or does one need more metadata?" — and reports retrieval quality per set
// plus score-calibration error before and after isotonic calibration.
func E1FeatureMatching(seed int64, scale float64) *Result {
	g := workload.NewGenerator(seed, 32, 8)
	nDocs := scaleInt(800, scale, 200)
	nQueries := scaleInt(120, scale, 40)
	// A hard corpus: heavy concept noise and a noisy visual extractor, so
	// the feature sets genuinely differ in quality.
	ve := feature.NewVisualExtractor(seed+50, 32, 12, 8, 0.35)
	docs := g.GenCorpusNoisy(nDocs, 1.2, 0, 0.8, ve)
	store, err := docstore.Open(docstore.Options{})
	if err != nil {
		panic(err)
	}
	for _, d := range docs {
		if err := store.Put(d.Doc); err != nil {
			panic(err)
		}
	}
	users := g.GenUsers(nQueries)

	// Feature sets: pure text, pure metadata concept, pure low-level
	// visual (color histogram + texture), and the text+concept hybrid.
	type cond struct {
		name   string
		search func(text string, concept feature.Vector, vf feature.VisualFeatures) []docstore.Hit
	}
	conds := []cond{
		{"text-only", func(text string, _ feature.Vector, _ feature.VisualFeatures) []docstore.Hit {
			return store.SearchText(text, 10)
		}},
		{"concept-metadata", func(_ string, concept feature.Vector, _ feature.VisualFeatures) []docstore.Hit {
			return store.SearchVector(concept, 10)
		}},
		{"visual (hist+texture)", func(_ string, _ feature.Vector, vf feature.VisualFeatures) []docstore.Hit {
			return store.SearchVisual(vf, 0.5, 10)
		}},
		{"text+concept", func(text string, concept feature.Vector, _ feature.VisualFeatures) []docstore.Hit {
			return store.SearchHybrid(text, concept, 0.5, 10)
		}},
	}
	table := metrics.NewTable("E1: retrieval quality by feature set",
		"feature set", "P@10", "NDCG@10", "MRR")
	headline := map[string]float64{}
	var hybridScores []float64
	var hybridLabels []bool
	for _, c := range conds {
		var p10s, ndcgs, mrrs []float64
		for _, u := range users {
			text, concept, topic := g.QueryFor(u)
			qvf := ve.Extract(g.Rand(), g.SampleConcept(topic, 0.4))
			hits := c.search(text, concept, qvf)
			var ranked []string
			rel := workload.RelevantSet(docs, topic)
			grel := map[string]float64{}
			for id := range rel {
				grel[id] = 1
			}
			for _, h := range hits {
				ranked = append(ranked, h.Doc.ID)
				if c.name == "text+concept" {
					hybridScores = append(hybridScores, h.Score)
					hybridLabels = append(hybridLabels, rel[h.Doc.ID])
				}
			}
			p10s = append(p10s, metrics.PrecisionAtK(ranked, rel, 10))
			ndcgs = append(ndcgs, metrics.NDCG(ranked, grel, 10))
			mrrs = append(mrrs, metrics.MRR(ranked, rel))
		}
		p10 := metrics.Summarize(p10s).Mean
		ndcg := metrics.Summarize(ndcgs).Mean
		table.AddRow(c.name, p10, ndcg, metrics.Summarize(mrrs).Mean)
		headline["p10_"+c.name] = p10
		headline["ndcg_"+c.name] = ndcg
	}

	// Calibration sub-table folded into headline numbers.
	eceRaw := uncertainty.CalibrationError(func(s float64) float64 { return s }, hybridScores, hybridLabels, 10)
	eceCal := eceRaw
	if cal, err := uncertainty.FitCalibrator(hybridScores, hybridLabels); err == nil {
		eceCal = uncertainty.CalibrationError(cal.Prob, hybridScores, hybridLabels, 10)
	}
	table.AddRow("ECE raw scores", eceRaw, "", "")
	table.AddRow("ECE calibrated", eceCal, "", "")
	headline["ece_raw"] = eceRaw
	headline["ece_calibrated"] = eceCal
	return &Result{ID: "E1", Table: table, Headline: headline}
}

// E2BeliefConvergence measures how fast Beta beliefs about hidden source
// quality converge with interactions, and the value of Thompson-sampling
// source selection over uniform choice (regret).
func E2BeliefConvergence(seed int64, scale float64) *Result {
	r := rand.New(rand.NewSource(seed))
	nSources := scaleInt(50, scale, 10)
	rounds := scaleInt(2000, scale, 400)
	hidden := make([]float64, nSources)
	for i := range hidden {
		hidden[i] = sim.Beta(r, 2, 2)
	}
	beliefs := make([]uncertainty.BetaBelief, nSources)
	for i := range beliefs {
		beliefs[i] = uncertainty.NewBelief()
	}
	best := 0.0
	for _, h := range hidden {
		if h > best {
			best = h
		}
	}
	checkpoints := map[int]bool{50: true, 200: true, 800: true, rounds: true}
	table := metrics.NewTable("E2: belief convergence & Thompson-sampling regret",
		"interactions", "belief MAE", "95% interval width", "cum. regret/round")
	headline := map[string]float64{}
	var cumRegret float64
	for round := 1; round <= rounds; round++ {
		// Thompson sampling: pick the source whose sampled quality is max.
		bestIdx, bestSample := 0, -1.0
		for i := range beliefs {
			if s := beliefs[i].Sample(r); s > bestSample {
				bestSample = s
				bestIdx = i
			}
		}
		success := r.Float64() < hidden[bestIdx]
		beliefs[bestIdx] = beliefs[bestIdx].Observe(success)
		cumRegret += best - hidden[bestIdx]
		if checkpoints[round] {
			var mae, width float64
			for i := range beliefs {
				mae += math.Abs(beliefs[i].Mean() - hidden[i])
				lo, hi := beliefs[i].Interval(1.96)
				width += hi - lo
			}
			mae /= float64(nSources)
			width /= float64(nSources)
			table.AddRow(fmt.Sprint(round), mae, width, cumRegret/float64(round))
			headline[fmt.Sprintf("mae_%d", round)] = mae
			headline[fmt.Sprintf("regret_%d", round)] = cumRegret / float64(round)
		}
	}
	return &Result{ID: "E2", Table: table, Headline: headline}
}

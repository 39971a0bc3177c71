package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/workload"
)

// E6Personalization measures ranking quality as profiles learn from
// simulated clicks: generic ranking (gamma=0) vs learned profile vs the
// oracle profile (ground-truth interests), over learning rounds.
func E6Personalization(seed int64, scale float64) *Result {
	g := workload.NewGenerator(seed, 32, 8)
	r := rand.New(rand.NewSource(seed + 1))
	nDocs := scaleInt(800, scale, 200)
	nUsers := scaleInt(40, scale, 10)
	docs := g.GenCorpus(nDocs, 1.2, 0)
	store, err := docstore.Open(docstore.Options{})
	if err != nil {
		panic(err)
	}
	for _, d := range docs {
		if err := store.Put(d.Doc); err != nil {
			panic(err)
		}
	}
	users := g.GenUsers(nUsers)
	topicOf := make(map[string]int, len(docs))
	for _, d := range docs {
		topicOf[d.Doc.ID] = d.TopicID
	}

	// Candidate pool: a broad slice of the corpus per evaluation (mixed
	// topics), ranked by each condition's scorer.
	pool := func() []*docstore.Document {
		out := store.Freshest(60)
		return out
	}

	rank := func(p *profile.Profile, gamma float64, cands []*docstore.Document) []string {
		type sc struct {
			id string
			s  float64
		}
		scored := make([]sc, len(cands))
		for i, d := range cands {
			base := 0.5 // uniform base relevance: isolates personalization
			scored[i] = sc{d.ID, p.PersonalScore(base, d.Concept, gamma)}
		}
		for i := 1; i < len(scored); i++ {
			for j := i; j > 0 && (scored[j].s > scored[j-1].s || (scored[j].s == scored[j-1].s && scored[j].id < scored[j-1].id)); j-- {
				scored[j], scored[j-1] = scored[j-1], scored[j]
			}
		}
		out := make([]string, len(scored))
		for i, s := range scored {
			out[i] = s.id
		}
		return out
	}

	// Per-user evaluation: learned profile vs their own ground truth.
	learner := profile.NewLearner()
	rounds := []int{0, 2, 5, 10, 20}
	table := metrics.NewTable("E6: NDCG@10 over learning rounds",
		"rounds", "generic", "learned profile", "oracle profile")
	headline := map[string]float64{}

	profiles := make([]*profile.Profile, len(users))
	for i, u := range users {
		profiles[i] = profile.New(u.ID, 32)
	}
	evalAll := func() (generic, learned, oracle float64) {
		var gs, ls, os []float64
		for i, u := range users {
			grel := workload.GradedRelevance(docs, u)
			cands := pool()
			gs = append(gs, metrics.NDCG(rank(profiles[i], 0, cands), grel, 10))
			ls = append(ls, metrics.NDCG(rank(profiles[i], 0.8, cands), grel, 10))
			op := profile.New(u.ID, 32)
			op.Interests = u.Concept.Clone()
			os = append(os, metrics.NDCG(rank(op, 0.8, cands), grel, 10))
		}
		return metrics.Summarize(gs).Mean, metrics.Summarize(ls).Mean, metrics.Summarize(os).Mean
	}

	done := 0
	for _, checkpoint := range rounds {
		for done < checkpoint {
			// One learning round: each user clicks docs of their topics.
			for i, u := range users {
				interested := map[int]bool{}
				for _, t := range u.Interests {
					interested[t] = true
				}
				for _, d := range pool() {
					if r.Float64() > 0.4 {
						continue // user looks at a subset
					}
					ev := profile.Event{Concept: d.Concept, Terms: feature.Tokenize(d.Title)}
					if interested[topicOf[d.ID]] {
						ev.Type = profile.EventClick
					} else {
						ev.Type = profile.EventSkip
					}
					learner.Observe(profiles[i], ev)
				}
			}
			done++
		}
		generic, learned, oracle := evalAll()
		table.AddRow(checkpoint, generic, learned, oracle)
		headline[fmt.Sprintf("generic_%d", checkpoint)] = generic
		headline[fmt.Sprintf("learned_%d", checkpoint)] = learned
		headline[fmt.Sprintf("oracle_%d", checkpoint)] = oracle
	}
	return &Result{ID: "E6", Table: table, Headline: headline}
}

// E7ProfileMerge injects conflicting per-source observations of one user's
// term affinities and compares conflict policies on merge F1 against the
// ground-truth likes/dislikes.
func E7ProfileMerge(seed int64, scale float64) *Result {
	r := rand.New(rand.NewSource(seed))
	nTerms := scaleInt(120, scale, 40)
	nSources := 4
	trials := scaleInt(30, scale, 10)

	table := metrics.NewTable("E7: profile merge under conflicts",
		"policy", "affinity F1", "conflicts detected", "interest cosine to truth")
	headline := map[string]float64{}
	policies := []struct {
		name string
		p    profile.ConflictPolicy
	}{
		{"evidence-weighted", profile.ConflictEvidence},
		{"drop-conflicts", profile.ConflictDrop},
		{"majority", profile.ConflictMajority},
	}
	sums := make([]struct{ f1, conflicts, cos float64 }, len(policies))
	for trial := 0; trial < trials; trial++ {
		// Ground truth.
		likes := map[string]bool{}
		dislikes := map[string]bool{}
		terms := make([]string, nTerms)
		for i := range terms {
			terms[i] = fmt.Sprintf("term%03d", i)
			if i%2 == 0 {
				likes[terms[i]] = true
			} else {
				dislikes[terms[i]] = true
			}
		}
		truthInterest := make(feature.Vector, 16)
		truthInterest[trial%16] = 1
		// Per-source partial profiles: each observes a subset; one source
		// is noisy and flips 30% of signs (inconsistent behavior).
		parts := make([]*profile.Profile, nSources)
		labels := make([]string, nSources)
		for sIdx := 0; sIdx < nSources; sIdx++ {
			p := profile.New("iris", 16)
			p.Evidence = float64(20 + r.Intn(60))
			p.Interests = truthInterest.Clone()
			noisy := sIdx == nSources-1
			for _, t := range terms {
				if r.Float64() > 0.5 {
					continue // source didn't observe this term
				}
				a := 0.5 + r.Float64()*0.5
				if dislikes[t] {
					a = -a
				}
				if noisy && r.Float64() < 0.3 {
					a = -a
				}
				p.TermAffinity[t] = a
			}
			if noisy {
				p.Evidence = 10 // noisy source has less evidence
			}
			parts[sIdx] = p
			labels[sIdx] = fmt.Sprintf("src%d", sIdx)
		}
		for i, pol := range policies {
			res, err := profile.Merge(parts, labels, pol.p)
			if err != nil {
				panic(err)
			}
			sums[i].f1 += profile.AffinityF1(res.Profile, likes, dislikes)
			sums[i].conflicts += float64(len(res.Conflicts))
			sums[i].cos += feature.Cosine(res.Profile.Interests, truthInterest)
		}
	}
	for i, pol := range policies {
		f1 := sums[i].f1 / float64(trials)
		table.AddRow(pol.name, f1, sums[i].conflicts/float64(trials), sums[i].cos/float64(trials))
		headline["f1_"+pol.name] = f1
	}
	return &Result{ID: "E7", Table: table, Headline: headline}
}

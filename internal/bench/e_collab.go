package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/collab"
	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/workload"
)

// E9CollabSharing measures multi-query optimization across collaborators:
// m members working on a common project issue topically overlapping
// queries; shared execution deduplicates the source-side work while
// per-member personalization keeps rankings individual. Reported: work
// saved vs independent execution and the precision of the fused workspace.
func E9CollabSharing(seed int64, scale float64) *Result {
	g := workload.NewGenerator(seed, 32, 8)
	r := rand.New(rand.NewSource(seed + 3))
	nDocs := scaleInt(600, scale, 200)
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
	// The team works on a common project: two adjacent topics.
	projTopics := []int{0, 1}
	relevant := map[string]bool{}
	for _, t := range projTopics {
		for id := range workload.RelevantSet(docs, t) {
			relevant[id] = true
		}
	}

	execCount := 0
	exec := func(q *query.Query, concept feature.Vector) []query.Result {
		execCount++
		return query.Execute(store, q, concept, 1<<60)
	}
	table := metrics.NewTable("E9: collaborative shared execution",
		"members", "queries", "distinct execs", "work saved", "workspace precision")
	headline := map[string]float64{}
	for _, members := range []int{2, 4, 6, 8} {
		sess := collab.NewSession(fmt.Sprintf("proj-%d", members))
		var queries []collab.MemberQuery
		profiles := map[string]*profile.Profile{}
		queriesPerMember := 3
		for m := 0; m < members; m++ {
			uid := fmt.Sprintf("user%d", m)
			p := profile.New(uid, 32)
			p.Interests = g.Topics[projTopics[m%2]].Center.Clone()
			profiles[uid] = p
			sess.Join(p)
			for qi := 0; qi < queriesPerMember; qi++ {
				// Overlap: members draw from a small shared query pool.
				topic := projTopics[qi%2]
				poolIdx := qi % 3 // 3 distinct query texts per topic pair
				text := g.Topics[topic].Vocab[poolIdx] + " " + g.Topics[topic].Vocab[poolIdx+1]
				q := &query.Query{Text: text, TopK: 10}
				queries = append(queries, collab.MemberQuery{
					User: uid, Q: q,
					Concept: g.Topics[topic].Center,
					Gamma:   0.5,
				})
			}
		}
		execCount = 0
		results, stats := collab.RunShared(queries, exec, func(user string, gamma float64, res query.Result) float64 {
			return profiles[user].PersonalScore(res.Score, res.Doc.Concept, gamma)
		})
		// Fuse everything into the shared workspace.
		for i, rs := range results {
			mq := queries[i]
			if err := sess.RecordStep(mq.User, collab.Step{Query: mq.Q, Concept: mq.Concept}, rs); err != nil {
				panic(err)
			}
		}
		ws := sess.Workspace()
		found := 0
		for _, e := range ws {
			if relevant[e.DocID] {
				found++
			}
		}
		precision := 0.0
		if len(ws) > 0 {
			precision = float64(found) / float64(len(ws))
		}
		table.AddRow(members, stats.Total, stats.Distinct, stats.WorkSaved(), precision)
		headline[fmt.Sprintf("saved_%d", members)] = stats.WorkSaved()
		headline[fmt.Sprintf("precision_%d", members)] = precision
	}
	_ = r
	return &Result{ID: "E9", Table: table, Headline: headline}
}

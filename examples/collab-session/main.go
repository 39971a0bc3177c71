// Collaborative session: the paper's §7. Iris (folk jewelry) and Jason
// (traditional dance) work on a joint survey. They query concurrently in a
// shared session, see each other's results fused into one workspace, the
// system shares the common source-side work across their queries, and
// Jason picks up Iris's thread and continues it with his own profile.
//
//	go run ./examples/collab-session
package main

import (
	"fmt"
	"log"

	"repro/agora"
	"repro/internal/collab"
	"repro/internal/docstore"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/workload"
)

func main() {
	const dim = 32
	g := workload.NewGenerator(3, dim, 8)
	jewelry, dance := g.Topics[0], g.Topics[1]

	// A shared archive both are searching.
	store, err := docstore.Open(docstore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range g.GenCorpus(900, 1.2, 0) {
		if err := store.Put(d.Doc); err != nil {
			log.Fatal(err)
		}
	}

	iris := profile.New("iris", dim)
	iris.Interests = jewelry.Center.Clone()
	jason := profile.New("jason", dim)
	jason.Interests = dance.Center.Clone()

	sess := collab.NewSession("folk-culture-survey")
	sess.Join(iris)
	sess.Join(jason)

	// Both ask overlapping queries about the survey's shared theme plus
	// their own angle — the shared part executes once.
	sharedText := jewelry.Vocab[0] + " " + dance.Vocab[0]
	queries := []collab.MemberQuery{
		{User: "iris", Q: &query.Query{Text: sharedText, TopK: 8}, Concept: jewelry.Center, Gamma: 0.7},
		{User: "jason", Q: &query.Query{Text: sharedText, TopK: 8}, Concept: jewelry.Center, Gamma: 0.7},
		{User: "iris", Q: &query.Query{Text: jewelry.Vocab[1], TopK: 8}, Concept: jewelry.Center, Gamma: 0.7},
		{User: "jason", Q: &query.Query{Text: dance.Vocab[1], TopK: 8}, Concept: dance.Center, Gamma: 0.7},
	}
	profiles := map[string]*profile.Profile{"iris": iris, "jason": jason}
	execs := 0
	results, stats := collab.RunShared(queries,
		func(q *query.Query, concept agora.Vector) []query.Result {
			execs++
			return query.Execute(store, q, concept, 1<<60)
		},
		func(user string, gamma float64, r query.Result) float64 {
			return profiles[user].PersonalScore(r.Score, r.Doc.Concept, gamma)
		})
	fmt.Printf("— Shared execution: %d member queries, %d source executions (%.0f%% work saved) —\n\n",
		stats.Total, stats.Distinct, stats.WorkSaved()*100)

	// Everyone's results land in the fused workspace.
	for i, rs := range results {
		mq := queries[i]
		if err := sess.RecordStep(mq.User, collab.Step{Query: mq.Q, Concept: mq.Concept}, rs); err != nil {
			log.Fatal(err)
		}
	}
	ws := sess.Workspace()
	fmt.Printf("— Shared workspace holds %d fused items; top finds: —\n", len(ws))
	for _, e := range ws[:min(5, len(ws))] {
		fmt.Printf("  [%.3f] %-22s added by %s\n", e.Score, e.DocID, e.AddedBy)
	}

	// Jason picks up Iris's thread: same query, re-personalized.
	st, err := sess.TakeOver("jason", "iris")
	if err != nil {
		log.Fatal(err)
	}
	taken := query.Execute(store, st.Query, st.Concept, 1<<60)
	if err := sess.RecordStep("jason", st, taken); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n— Jason took over Iris's thread (%q): his blended concept now matches —\n", st.Query.Text)
	fmt.Printf("  jewelry %.2f / dance %.2f — both angles present\n",
		agora.Cosine(st.Concept, jewelry.Center), agora.Cosine(st.Concept, dance.Center))
	fmt.Printf("  continuation found %d items; workspace now %d\n", len(taken), len(sess.Workspace()))

	// Threads record the whole exploration for later review.
	for _, user := range sess.Members() {
		th, _ := sess.Thread(user)
		fmt.Printf("  %s's thread: %d steps\n", user, len(th.Steps))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Jewelry hunt: the paper's running scenario (§1, §9). Iris, researching
// European folk jewelry, queries museum repositories by example image,
// maintains a personal information base with annotations, and — while
// browsing — establishes a live stream over an auction catalog, comparing
// every arriving item against her collection. Multi-modal interaction:
// query, browse, and feed, mixed in one session.
//
//	go run ./examples/jewelry-hunt
package main

import (
	"fmt"
	"log"
	"time"

	"repro/agora"
	"repro/internal/workload"
)

func main() {
	a := agora.New(agora.Config{Seed: 42})
	g := workload.NewGenerator(42, a.ConceptDim(), 8)
	jewelry := g.Topics[0] // topic "jewelry"

	// European repositories join with their holdings.
	repoNames := []string{"louvre", "benaki", "rijksmuseum", "auction-house"}
	docs := g.GenCorpus(1200, 1.2, int64(30*24*time.Hour))
	bySource := g.AssignToSources(docs, len(repoNames), 0.6)
	nodes := map[string]*agora.Node{}
	for i, name := range repoNames {
		node, err := a.AddNode(name, agora.DefaultEconomics(), agora.DefaultBehavior())
		if err != nil {
			log.Fatal(err)
		}
		nodes[name] = node
		for _, d := range bySource[i] {
			d.Doc.Provenance = name
			if err := node.Ingest(d.Doc); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Iris's personal information base: a durable store of her own.
	pib, err := agora.OpenStore(agora.StoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer pib.Close()

	iris := agora.NewProfile("iris", a.ConceptDim())
	iris.Interests = jewelry.Center.Clone()
	iris.Weights = agora.QoSWeights{Completeness: 3, Trust: 2, Freshness: 2, Latency: 1, Price: 1}
	sess := a.NewSession(iris)

	// --- Modality 1: query by example, delivered progressively ----------
	// Iris holds a photograph of a ring; its extracted features are a
	// concept vector near the jewelry cluster. Results stream in per
	// source so she can react before the full fusion (§9).
	photo := g.SampleConcept(0, 0.1)
	fmt.Println("— Query by example (the photo of a ring), streaming —")
	ans, err := sess.AskProgressive(fmt.Sprintf(
		`FIND documents WHERE topic = "%s" AND similar > 0.6 TOP 6 QOS completeness >= 0.7`,
		jewelry.Name), photo,
		func(p agora.Partial) {
			fmt.Printf("  … %s answered with %d items in %s (%d/%d sources)\n",
				p.Source, len(p.Results), p.Delivered.Latency.Round(time.Millisecond),
				p.SourcesDone, p.SourcesPlanned)
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  — fused and personalized: —")
	for i, r := range ans.Results {
		fmt.Printf("  %d. [%.3f] %-13s %s\n", i+1, r.Score, r.Source, r.Doc.Title)
	}
	fmt.Printf("  (%d contracts, %.2f credits, latency %s)\n\n",
		len(ans.Contracts), ans.Delivered.Price, ans.Delivered.Latency)

	// Iris annotates the best find into her personal information base.
	if len(ans.Results) > 0 {
		best := ans.Results[0].Doc.Clone()
		best.Kind = agora.KindAnnotation
		best.Meta = map[string]string{"note": "compare clasp with Thessaly finds", "starred": "yes"}
		if err := pib.Put(best); err != nil {
			log.Fatal(err)
		}
		sess.Feedback([]agora.ProfileEvent{{
			Type: agora.EventAnnotate, Concept: best.Concept,
			Terms: agora.Tokenize(best.Title), Source: best.Provenance, Satisfied: true,
		}})
		fmt.Printf("— Annotated %q into the personal information base (%d items) —\n\n", best.Title, pib.Len())
	}

	// --- Modality 2: browsing -------------------------------------------
	fmt.Println("— Browsing the Rijksmuseum's newest holdings —")
	fresh, err := sess.Browse("rijksmuseum", 4)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range fresh {
		fmt.Printf("  · %s\n", d.Title)
	}
	fmt.Println()

	// --- Modality 3: the auction stream ---------------------------------
	// "She immediately establishes a stream to retrieve every item from the
	// auction catalog and compare it with material she already has."
	subID, err := sess.Subscribe(nil, jewelry.Center, 0.75)
	if err != nil {
		log.Fatal(err)
	}
	newLots := g.GenCorpus(60, 1.1, 0)
	for i, d := range newLots {
		d.Doc.ID = fmt.Sprintf("lot%03d", i)
		d.Doc.Kind = agora.KindCatalogEntry
		if err := nodes["auction-house"].Ingest(d.Doc); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("— Auction published %d new lots; %d matched Iris's stream —\n", len(newLots), sess.Inbox.Len())
	for _, item := range sess.Inbox.Snapshot()[:minInt(4, sess.Inbox.Len())] {
		// Compare each arriving lot against her own collection.
		hits := pib.SearchVector(item.Concept, 1)
		match := "no match in collection"
		if len(hits) > 0 && hits[0].Score > 0.6 {
			match = fmt.Sprintf("resembles %q (%.2f)", hits[0].Doc.Title, hits[0].Score)
		}
		fmt.Printf("  · %s — %s\n", item.ID, match)
	}
	_ = sess.Unsubscribe(subID)

	fmt.Printf("\nSession context detector says Iris is now in %q mode.\n", sess.Detector.Task())
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/feature"
	"repro/internal/feedsys"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// E11FeedMatching compares the predicate-index matcher with the linear-scan
// baseline across subscription populations: the subscriptions each holds
// against an item (the count the shape test reads), whether the two match
// sets agree — every subscription here carries terms, so LSH candidate
// recall does not enter and they must be identical — and, printed only, the
// items matched per second.
func E11FeedMatching(seed int64, scale float64) *Result {
	g := workload.NewGenerator(seed, 32, 8)
	r := rand.New(rand.NewSource(seed + 5))
	nItems := scaleInt(1500, scale, 300)

	table := metrics.NewTable("E11: feed matching throughput",
		"subscriptions", "indexed items/s", "linear items/s", "speedup",
		"indexed examined/item", "linear examined/item", "avg matches/item")
	headline := map[string]float64{}
	for _, nSubs := range []int{1000, 5000, 10000} {
		nSubs = scaleInt(nSubs, scale, 200)
		indexed := feedsys.NewMatcher(32, seed)
		linear := feedsys.NewMatcher(32, seed)
		linear.Linear = true
		for i := 0; i < nSubs; i++ {
			topic := g.Topics[r.Intn(len(g.Topics))]
			var terms []string
			nTerms := 1 + r.Intn(2)
			for t := 0; t < nTerms; t++ {
				terms = append(terms, topic.Vocab[r.Intn(len(topic.Vocab))])
			}
			var concept feature.Vector
			var threshold float64
			if r.Intn(3) == 0 {
				concept = topic.Center.Clone()
				threshold = 0.7
			}
			s1 := feedsys.Subscription{ID: fmt.Sprintf("s%05d", i), Terms: terms, Concept: concept, Threshold: threshold}
			s2 := s1
			if err := indexed.Subscribe(&s1); err != nil {
				panic(err)
			}
			if err := linear.Subscribe(&s2); err != nil {
				panic(err)
			}
		}
		items := make([]feedsys.Item, nItems)
		for i := range items {
			topic := r.Intn(len(g.Topics))
			items[i] = feedsys.Item{
				ID:      fmt.Sprintf("i%05d", i),
				Text:    g.GenText(topic, 12),
				Concept: g.SampleConcept(topic, 0.15),
			}
		}
		matches := make([][]*feedsys.Subscription, nItems)
		var totalMatches int
		start := time.Now()
		for i, it := range items {
			matches[i] = indexed.Match(it)
			totalMatches += len(matches[i])
		}
		indexedDur := time.Since(start)
		start = time.Now()
		for i, it := range items {
			// Both sets come sorted by id, so they agree iff they agree in order.
			if !slices.EqualFunc(matches[i], linear.Match(it), func(a, b *feedsys.Subscription) bool { return a.ID == b.ID }) {
				headline["mismatched_items"]++
			}
		}
		linearDur := time.Since(start)

		ixRate := float64(nItems) / indexedDur.Seconds()
		linRate := float64(nItems) / linearDur.Seconds()
		ixExamined := float64(indexed.Examined.Load()) / float64(nItems)
		linExamined := float64(linear.Examined.Load()) / float64(nItems)
		table.AddRow(nSubs, ixRate, linRate, ixRate/linRate, ixExamined, linExamined, float64(totalMatches)/float64(nItems))
		headline[fmt.Sprintf("examined_indexed_%d", nSubs)] = ixExamined
		headline[fmt.Sprintf("examined_linear_%d", nSubs)] = linExamined
	}
	return &Result{ID: "E11", Table: table, Headline: headline}
}

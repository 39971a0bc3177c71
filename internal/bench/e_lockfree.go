package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/metrics"
)

// E22LockFreeReads pins the determinism contract of the epoch-snapshot
// read path under writer churn: readers load an atomic pointer and never
// wait, so a writer publishing epoch after epoch must never perturb what
// they see of an unchanged document set. Several reader goroutines issue
// the same two-term SearchText query while one writer re-puts the corpus a
// fixed number of times; every read must return the hit slice the quiescent
// store returned (ids and float-identical scores). The readers run until
// the writer has finished, so every read overlaps the churn, and the
// store's epoch must have advanced once per put. That readers take no lock
// is the lockfree analyzer's job.
func E22LockFreeReads(seed int64, scale float64) *Result {
	const nDocs, readers = 64, 8
	rounds := scaleInt(16, scale, 4)

	r := rand.New(rand.NewSource(seed + 2))
	w := func() string { return fmt.Sprintf("term%03d", r.Intn(256)) }
	s, err := docstore.Open(docstore.Options{ConceptDim: 8, Seed: seed, QueryCacheSize: -1})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	docs := make([]*docstore.Document, nDocs)
	for i := range docs {
		docs[i] = &docstore.Document{
			ID:         fmt.Sprintf("e22-%04d", i),
			Kind:       docstore.KindArticle,
			Title:      w() + " " + w(),
			Text:       w() + " " + w() + " " + w() + " " + w(),
			Topics:     []string{"t" + fmt.Sprint(i%4)},
			CreatedAt:  int64(i),
			Provenance: "e22",
		}
		if i%4 == 0 { // every fourth document goes through the vector index too
			docs[i].Concept = make(feature.Vector, 8)
			for j := range docs[i].Concept {
				docs[i].Concept[j] = r.Float64()
			}
		}
		if err := s.Put(docs[i]); err != nil {
			panic(err)
		}
	}

	// Two-term queries keep float accumulation order-independent, so the
	// comparison is exact equality, not tolerance.
	query := docs[0].Title
	expected := s.SearchText(query, 8)
	epoch0 := s.Epoch()

	var done atomic.Bool
	var reads, diverged atomic.Int64
	var wg sync.WaitGroup
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := false; !last; {
				last = done.Load() // one more read after the writer's last put
				if !sameHits(s.SearchText(query, 8), expected) {
					diverged.Add(1)
				}
				reads.Add(1)
			}
		}()
	}
	puts := rounds * nDocs
	for i := 0; i < puts; i++ {
		if err := s.Put(docs[i%nDocs].Clone()); err != nil {
			panic(err)
		}
	}
	done.Store(true)
	wg.Wait()

	epochs := s.Epoch() - epoch0
	identical := diverged.Load() == 0 && len(expected) > 0
	table := metrics.NewTable("E22: snapshot reads under writer churn",
		"readers", "reads checked", "reads diverged", "writer puts", "epochs published", "identical")
	table.AddRow(readers, reads.Load(), diverged.Load(), puts, epochs, identical)

	return &Result{ID: "E22", Table: table, Headline: map[string]float64{
		"identical_under_churn": boolAsFloat(identical),
		"reads_checked":         float64(reads.Load()),
		"writer_puts":           float64(puts),
		"epochs_published":      float64(epochs),
	}}
}

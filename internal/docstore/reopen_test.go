package docstore_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/workload"
)

// TestReopenRecoversGeneratedCorpus loads a generated corpus — the topical
// text and 32-dimensional concepts the simulations ingest — into a durable
// store, closes it and reopens it from its log. The reopened store must hold
// every document, and answer text and vector asks with the same hits and
// scores as before the close.
func TestReopenRecoversGeneratedCorpus(t *testing.T) {
	const seed, nDocs, queries = 14, 600, 100
	g := workload.NewGenerator(seed, 32, 8)
	docs := g.GenCorpus(nDocs, 1.2, int64(time.Hour))
	dir := t.TempDir()
	open := func() *docstore.Store {
		s, err := docstore.Open(docstore.Options{Dir: dir, ConceptDim: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sameHits := func(a, b []docstore.Hit) bool {
		return slices.EqualFunc(a, b, func(x, y docstore.Hit) bool { return x.Doc.ID == y.Doc.ID && x.Score == y.Score })
	}

	store := open()
	for _, d := range docs {
		if err := store.Put(d.Doc); err != nil {
			t.Fatal(err)
		}
	}
	asks := make([]struct {
		text              string
		concept           feature.Vector
		textHits, vecHits []docstore.Hit
	}, queries)
	answered := 0
	for i, u := range g.GenUsers(queries) {
		a := &asks[i]
		a.text, a.concept, _ = g.QueryFor(u)
		a.textHits, a.vecHits = store.SearchText(a.text, 10), store.SearchVector(a.concept, 10)
		if len(a.textHits) > 0 && len(a.vecHits) > 0 {
			answered++
		}
	}
	if answered == 0 {
		t.Fatal("no ask found hits before the close")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	re := open()
	defer re.Close()
	if recovered := re.Len(); recovered != nDocs {
		t.Fatalf("recovery lost docs: %v vs %v", recovered, nDocs)
	}
	for i, a := range asks {
		if got := re.SearchText(a.text, 10); !sameHits(got, a.textHits) {
			t.Fatalf("text ask %q answered differently after reopen", a.text)
		}
		if got := re.SearchVector(a.concept, 10); !sameHits(got, a.vecHits) {
			t.Fatalf("vector ask %d answered differently after reopen", i)
		}
	}
}

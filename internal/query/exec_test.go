package query

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/workload"
)

// overFetch is Execute with the slack it used to take whatever the query:
// it asks the store for max(5·TopK, 50) hits, drops those a filter fails
// and keeps the first TopK — the reference a filtered Execute must match.
func overFetch(s *docstore.Store, q *Query, concept feature.Vector, now int64) []Result {
	pool := max(q.TopK*5, 50)
	scan := false
	var hits []docstore.Hit
	switch {
	case q.Text != "" && len(concept) > 0:
		hits = s.SearchHybrid(q.Text, concept, 0.5, pool)
	case q.Text != "":
		hits = s.SearchText(q.Text, pool)
	case len(concept) > 0:
		hits = s.SearchVector(concept, pool)
	case len(q.Topics) > 0:
		scan = true
		hits = s.Newest(q.Topics[0], pool)
	default:
		scan = true
		hits = s.Newest("", pool)
	}
	var out []Result
	for _, h := range hits {
		if matchesFilters(h.Doc, q, concept, now) {
			out = append(out, Result{Hit: h, Source: h.Doc.Provenance})
		}
	}
	if scan {
		SortResults(out)
	}
	return out[:min(len(out), q.TopK)]
}

// resultsOf wraps the first k hits of a store search as Execute's results.
func resultsOf(hits []docstore.Hit, k int) []Result {
	out := make([]Result, 0, k)
	for _, h := range hits[:min(len(hits), k)] {
		out = append(out, Result{Hit: h, Source: h.Doc.Provenance})
	}
	return out
}

// diffResults describes the first difference between two answers — id,
// score bits or source — or returns "" when they are the same.
func diffResults(got, want []Result) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Doc.ID != w.Doc.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) || g.Source != w.Source {
			return fmt.Sprintf("result %d is %s %v from %s, want %s %v from %s",
				i, g.Doc.ID, g.Score, g.Source, w.Doc.ID, w.Score, w.Source)
		}
	}
	return ""
}

// probe is one ask against a store: its text and concept, and a topic and a
// source its filters can name.
type probe struct {
	text          string
	concept       feature.Vector
	topic, source string
}

// execCase is a store with the probes asked of it and the clock they are
// asked at.
type execCase struct {
	name   string
	store  *docstore.Store
	probes []probe
	now    int64
	maxAge time.Duration
}

// segmentedStore holds a seeded corpus over four sources, committed in four
// windows (one segment each) with a document deleted after the last, and
// probes from each topic: even ones name their own topic in a filter, odd
// ones the next topic.
func segmentedStore(t *testing.T) execCase {
	t.Helper()
	g := workload.NewGenerator(3, 8, 8)
	docs := g.GenCorpus(600, 1.1, int64(time.Hour))
	g.AssignToSources(docs, 4, 0.5)
	s, err := docstore.Open(docstore.Options{ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(docs); lo += 150 {
		batch := make([]*docstore.Document, 0, 150)
		for _, d := range docs[lo : lo+150] {
			batch = append(batch, d.Doc)
		}
		if err := s.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(docs[7].Doc.ID); err != nil {
		t.Fatal(err)
	}
	c := execCase{name: "segmented", store: s, now: int64(time.Hour), maxAge: 30 * time.Minute}
	for i := 0; i < 16; i++ {
		topic := i % len(g.Topics)
		named := (topic + i%2) % len(g.Topics)
		c.probes = append(c.probes, probe{
			text:    g.GenText(topic, 3),
			concept: g.SampleConcept(topic, 0.1),
			topic:   g.Topics[named].Name,
			source:  workload.SourceName(i % 4),
		})
	}
	return c
}

// fixtureStore is the package's four-document store with probes in its
// vocabulary.
func fixtureStore(t *testing.T) execCase {
	hot := func(i int) feature.Vector {
		v := make(feature.Vector, 8)
		v[i] = 1
		return v
	}
	return execCase{name: "fixture", store: buildStore(t), now: int64(100 * time.Hour), maxAge: 20 * time.Hour,
		probes: []probe{
			{text: "gold ring", concept: hot(1), topic: "jewelry", source: "auction"},
			{text: "byzantine", concept: hot(2), topic: "archaeology", source: "museum"},
		}}
}

// filterKinds are the filters of Query, each applied on its own.
var filterKinds = []struct {
	name  string
	apply func(q *Query, p probe, c execCase)
}{
	{"Kind", func(q *Query, _ probe, _ execCase) { k := docstore.KindArticle; q.Kind = &k }},
	{"Topics", func(q *Query, p probe, _ execCase) { q.Topics = []string{p.topic} }},
	{"NotTopics", func(q *Query, p probe, _ execCase) { q.NotTopics = []string{p.topic} }},
	{"Sources", func(q *Query, p probe, _ execCase) { q.Sources = []string{p.source} }},
	{"NotSources", func(q *Query, p probe, _ execCase) { q.NotSources = []string{p.source} }},
	{"SimThreshold", func(q *Query, _ probe, _ execCase) { q.SimThreshold = 0.5 }},
	{"MaxAge", func(q *Query, _ probe, c execCase) { q.MaxAge = c.maxAge }},
}

// TestExecuteAsksForWhatItKeeps pins the slack rule: an unfiltered Execute
// asks the store for exactly TopK — its text and vector answers the first
// TopK of the over-fetched search, bit for bit, its hybrid answer the
// store's hybrid top-TopK — and a query with any one filter answers as the
// over-fetch-then-filter reference does, in every search shape.
func TestExecuteAsksForWhatItKeeps(t *testing.T) {
	shapes := []struct {
		name          string
		text, concept bool
	}{{"text", true, false}, {"vector", false, true}, {"hybrid", true, true}, {"scan", false, false}}
	for _, c := range []execCase{segmentedStore(t), fixtureStore(t)} {
		s := c.store
		for _, k := range []int{1, 3, 10, 20, 60} {
			wide := max(5*k, 50)
			for i, p := range c.probes {
				check := func(what string, got, want []Result) {
					t.Helper()
					if d := diffResults(got, want); d != "" {
						t.Errorf("%s TopK %d probe %d, %s: %s", c.name, k, i, what, d)
					}
				}
				check("unfiltered text", Execute(s, &Query{Text: p.text, TopK: k}, nil, c.now),
					resultsOf(s.SearchText(p.text, wide), k))
				check("unfiltered vector", Execute(s, &Query{TopK: k}, p.concept, c.now),
					resultsOf(s.SearchVector(p.concept, wide), k))
				check("unfiltered hybrid", Execute(s, &Query{Text: p.text, TopK: k}, p.concept, c.now),
					resultsOf(s.SearchHybrid(p.text, p.concept, 0.5, k), k))
				for _, f := range filterKinds {
					for _, sh := range shapes {
						q := &Query{TopK: k}
						var concept feature.Vector
						if sh.text {
							q.Text = p.text
						}
						if sh.concept {
							concept = p.concept
						}
						f.apply(q, p, c)
						check(f.name+" "+sh.name, Execute(s, q, concept, c.now), overFetch(s, q, concept, c.now))
					}
				}
			}
		}
	}

	t.Run("fields", func(t *testing.T) {
		// Every field of Query is a filter filtered names or is not a
		// filter; a new field fails here until it is classified.
		filters := map[string]bool{"Kind": true, "Topics": true, "NotTopics": true, "Sources": true,
			"NotSources": true, "SimThreshold": true, "MaxAge": true}
		notFilters := map[string]bool{"Text": true, "TopK": true, "Want": true}
		typ := reflect.TypeOf(Query{})
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			var q Query
			setNonZero(t, reflect.ValueOf(&q).Elem().Field(i))
			switch {
			case filters[name]:
				if !q.filtered() {
					t.Errorf("Query.%s is a filter, but filtered() is false with it set", name)
				}
			case notFilters[name]:
				if q.filtered() {
					t.Errorf("Query.%s is not a filter, but filtered() is true with it set", name)
				}
			default:
				t.Errorf("Query.%s is unclassified: name it in filtered if matchesFilters reads it, else list it here as not a filter", name)
			}
			delete(filters, name)
			delete(notFilters, name)
		}
		for name := range filters {
			t.Errorf("filter %s is no field of Query", name)
		}
		for name := range notFilters {
			t.Errorf("non-filter %s is no field of Query", name)
		}
	})
}

// setNonZero gives v a value other than its zero.
func setNonZero(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setNonZero(t, v.Field(i))
		}
	default:
		t.Fatalf("no non-zero value for a %s", v.Type())
	}
}

// TestUnfilteredHybridKeepsTopicPrecision holds the narrower hybrid pools of
// an unfiltered Execute to the retrieval quality of the pools it ranked when
// it over-fetched: over the market's corpus shape (2 048 documents from the
// workload generator over 8 sources at specialization 0.7, concept dimension
// 32), 125 asks per seed to every source, its top-20 per source must keep as
// many on-topic hits as SearchHybrid at k 100 cut to 20, less 0.1% of the
// hits compared. On-topic hits of 20 000, narrow pools against wide: seed 1
// 6 624 against 6 622, seed 7 6 028 against 6 028.
func TestUnfilteredHybridKeepsTopicPrecision(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		g := workload.NewGenerator(seed, 32, 16)
		docs := g.GenCorpus(2048, 1.1, int64(time.Hour))
		topicOf := make(map[string]int, len(docs))
		var stores []*docstore.Store
		for _, list := range g.AssignToSources(docs, 8, 0.7) {
			s, err := docstore.Open(docstore.Options{ConceptDim: 32, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]*docstore.Document, 0, len(list))
			for _, d := range list {
				batch = append(batch, d.Doc)
				topicOf[d.Doc.ID] = d.TopicID
			}
			if err := s.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
			stores = append(stores, s)
		}
		users := g.GenUsers(32)
		var compared, oldOn, newOn int
		for i := 0; i < 125; i++ {
			text, concept, topic := g.QueryFor(users[i%len(users)])
			for _, s := range stores {
				for _, r := range Execute(s, &Query{Text: text, TopK: 20}, concept, 0) {
					if topicOf[r.Doc.ID] == topic {
						newOn++
					}
				}
				old := s.SearchHybrid(text, concept, 0.5, 100)
				for _, h := range old[:min(len(old), 20)] {
					compared++
					if topicOf[h.Doc.ID] == topic {
						oldOn++
					}
				}
			}
		}
		t.Logf("seed %d: on-topic %d (narrow pools) vs %d (wide), of %d", seed, newOn, oldOn, compared)
		if newOn < oldOn-compared/1000 {
			t.Errorf("seed %d: %d on-topic hits, want at least %d - %d (the wide pools' %d of %d)",
				seed, newOn, oldOn, compared/1000, oldOn, compared)
		}
	}
}

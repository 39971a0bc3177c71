package query

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/docstore"
	"repro/internal/feature"
)

func TestParseFull(t *testing.T) {
	q, err := Parse(`FIND catalogs
		WHERE text ~ "byzantine gold ring"
		  AND topic = "jewelry"
		  AND similar > 0.7
		  AND fresh < 7d
		TOP 10
		QOS completeness >= 0.8, latency <= 2s, price <= 5`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind == nil || *q.Kind != docstore.KindCatalogEntry {
		t.Fatalf("kind = %v", q.Kind)
	}
	if q.Text != "byzantine gold ring" {
		t.Fatalf("text = %q", q.Text)
	}
	if len(q.Topics) != 1 || q.Topics[0] != "jewelry" {
		t.Fatalf("topics = %v", q.Topics)
	}
	if q.SimThreshold != 0.7 {
		t.Fatalf("sim = %v", q.SimThreshold)
	}
	if q.MaxAge != 7*24*time.Hour {
		t.Fatalf("maxAge = %v", q.MaxAge)
	}
	if q.TopK != 10 {
		t.Fatalf("topK = %d", q.TopK)
	}
	if q.Want.Completeness != 0.8 || q.Want.Latency != 2*time.Second || q.Want.Price != 5 {
		t.Fatalf("qos = %+v", q.Want)
	}
}

func TestParseMinimal(t *testing.T) {
	q, err := Parse(`FIND documents WHERE text ~ "folk dance"`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != nil || q.TopK != 10 {
		t.Fatalf("q = %+v", q)
	}
	q2, err := Parse(`FIND`)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Text != "" {
		t.Fatal("bare FIND should parse")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse(`find HOLDINGS where TOPIC = "dance" top 3`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind == nil || *q.Kind != docstore.KindHolding || q.TopK != 3 {
		t.Fatalf("q = %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`WHERE text ~ "x"`,              // missing FIND
		`FIND WHERE text = "x"`,         // wrong operator for text
		`FIND WHERE text ~ unquoted`,    // not a string
		`FIND WHERE similar > 2`,        // out of range
		`FIND WHERE fresh < 10`,         // number, not duration
		`FIND WHERE fresh < "7d"`,       // string, not duration
		`FIND TOP 0`,                    // non-positive
		`FIND TOP many`,                 // not a number
		`FIND QOS completeness > 0.5`,   // wrong op
		`FIND QOS sparkle >= 1`,         // unknown dimension
		`FIND WHERE text ~ "x`,          // unterminated string
		`FIND WHERE elevation = "high"`, // unknown field
		`FIND WHERE fresh < 7y`,         // unknown unit
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Fatalf("expected error for %q", in)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("error for %q is not SyntaxError: %v", in, err)
			}
		}
	}
}

func TestStringRoundtrip(t *testing.T) {
	q := MustParse(`FIND magazines WHERE text ~ "gold" AND topic = "fashion" AND similar > 0.5 AND fresh < 2h TOP 7`)
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", q.String(), err)
	}
	if q2.Text != q.Text || q2.TopK != q.TopK || q2.SimThreshold != q.SimThreshold || q2.MaxAge != q.MaxAge {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", q, q2)
	}
}

func buildStore(t *testing.T) *docstore.Store {
	t.Helper()
	s, err := docstore.Open(docstore.Options{ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, kind docstore.Kind, title string, topics []string, hot int, at int64, prov string) {
		v := make(feature.Vector, 8)
		v[hot] = 1
		if err := s.Put(&docstore.Document{
			ID: id, Kind: kind, Title: title, Topics: topics,
			Concept: v, CreatedAt: at, Provenance: prov,
		}); err != nil {
			t.Fatal(err)
		}
	}
	hour := int64(time.Hour)
	mk("d1", docstore.KindCatalogEntry, "byzantine gold ring", []string{"jewelry"}, 1, 100*hour, "auction")
	mk("d2", docstore.KindCatalogEntry, "celtic silver brooch", []string{"jewelry"}, 2, 99*hour, "auction")
	mk("d3", docstore.KindArticle, "byzantine gold hoard found", []string{"archaeology"}, 1, 50*hour, "magazine")
	mk("d4", docstore.KindHolding, "gold ring holding", []string{"jewelry"}, 1, 10*hour, "museum")
	return s
}

func TestExecuteFilters(t *testing.T) {
	s := buildStore(t)
	now := int64(100 * time.Hour)

	// Kind filter.
	res := Execute(s, MustParse(`FIND catalogs WHERE text ~ "gold byzantine"`), nil, now)
	for _, r := range res {
		if r.Doc.Kind != docstore.KindCatalogEntry {
			t.Fatalf("kind filter leaked %v", r.Doc.Kind)
		}
	}
	if len(res) == 0 || res[0].Doc.ID != "d1" {
		t.Fatalf("res = %+v", res)
	}

	// Topic filter.
	res = Execute(s, MustParse(`FIND documents WHERE text ~ "gold" AND topic = "jewelry"`), nil, now)
	for _, r := range res {
		if r.Doc.Topics[0] != "jewelry" {
			t.Fatal("topic filter leaked")
		}
	}

	// Source filter.
	res = Execute(s, MustParse(`FIND documents WHERE text ~ "gold" AND source = "museum"`), nil, now)
	if len(res) != 1 || res[0].Doc.ID != "d4" {
		t.Fatalf("source filter: %+v", res)
	}

	// Freshness: only docs newer than 20h.
	res = Execute(s, MustParse(`FIND documents WHERE fresh < 20h`), nil, now)
	for _, r := range res {
		if now-r.Doc.CreatedAt > int64(20*time.Hour) {
			t.Fatalf("stale doc %s leaked", r.Doc.ID)
		}
	}
	if len(res) != 2 {
		t.Fatalf("fresh filter size = %d", len(res))
	}
}

func TestExecuteSimilarity(t *testing.T) {
	s := buildStore(t)
	concept := make(feature.Vector, 8)
	concept[1] = 1
	res := Execute(s, MustParse(`FIND documents WHERE similar > 0.9 TOP 10`), concept, 1<<50)
	if len(res) != 3 {
		t.Fatalf("similar hits = %d, want 3 (d1,d3,d4)", len(res))
	}
	// No concept vector at execution: similarity predicate rejects all.
	res = Execute(s, MustParse(`FIND documents WHERE similar > 0.9`), nil, 1<<50)
	if len(res) != 0 {
		t.Fatal("similarity without concept should match nothing")
	}
}

func TestExecuteTopK(t *testing.T) {
	s := buildStore(t)
	res := Execute(s, MustParse(`FIND documents WHERE text ~ "gold" TOP 1`), nil, 1<<50)
	if len(res) != 1 {
		t.Fatalf("topk = %d", len(res))
	}
}

func TestMergeDedupAndNormalize(t *testing.T) {
	r := func(id string, score float64, source string) Result {
		return Result{Hit: docstore.Hit{Doc: &docstore.Document{ID: id}, Score: score}, Source: source}
	}
	listA := []Result{r("x", 10, "a"), r("y", 5, "a")}
	listB := []Result{r("x", 0.2, "b"), r("z", 0.1, "b")}
	merged := Merge([][]Result{listA, listB}, 10)
	if len(merged) != 3 {
		t.Fatalf("merged = %d", len(merged))
	}
	// x appears once with normalized score 1 (max in both lists).
	if merged[0].Doc.ID != "x" || merged[0].Score != 1 {
		t.Fatalf("best = %+v", merged[0])
	}
	// y normalized to 0.5 within list A beats z's 0.5? z = 0.1/0.2 = 0.5,
	// y = 5/10 = 0.5: tie broken by ID -> y before z.
	if merged[1].Doc.ID != "y" || merged[2].Doc.ID != "z" {
		t.Fatalf("order: %v %v", merged[1].Doc.ID, merged[2].Doc.ID)
	}
	// topK cap.
	if got := Merge([][]Result{listA, listB}, 2); len(got) != 2 {
		t.Fatalf("capped merge = %d", len(got))
	}
}

func TestSplitByTopics(t *testing.T) {
	q := MustParse(`FIND documents WHERE topic = "jewelry" AND topic = "dance" AND text ~ "folk"`)
	subs := q.SplitByTopics()
	if len(subs) != 2 {
		t.Fatalf("subs = %d", len(subs))
	}
	for _, sub := range subs {
		if len(sub.Topics) != 1 || sub.Text != "folk" {
			t.Fatalf("sub = %+v", sub)
		}
	}
	single := MustParse(`FIND documents WHERE text ~ "x"`)
	if got := single.SplitByTopics(); len(got) != 1 {
		t.Fatalf("single split = %d", len(got))
	}
}

func TestCompletenessAndStaleness(t *testing.T) {
	d := func(id string, at int64) Result {
		return Result{Hit: docstore.Hit{Doc: &docstore.Document{ID: id, CreatedAt: at}}}
	}
	rel := map[string]bool{"a": true, "b": true, "c": true, "d": true}
	res := []Result{d("a", 100), d("b", 50), d("x", 10)}
	if got := Completeness(res, rel); got != 0.5 {
		t.Fatalf("completeness = %v", got)
	}
	if got := Completeness(nil, nil); got != 1 {
		t.Fatalf("vacuous completeness = %v", got)
	}
	if got := MaxStaleness(res, 110); got != 100*time.Nanosecond {
		t.Fatalf("staleness = %v", got)
	}
	if got := MaxStaleness(nil, 10); got != 0 {
		t.Fatalf("empty staleness = %v", got)
	}
}

func TestExecuteNoTextNoConceptUsesFreshest(t *testing.T) {
	s := buildStore(t)
	res := Execute(s, MustParse(`FIND documents TOP 2`), nil, 1<<50)
	if len(res) != 2 {
		t.Fatalf("res = %d", len(res))
	}
	// Freshest two are d1 (100h) and d2 (99h).
	ids := []string{res[0].Doc.ID, res[1].Doc.ID}
	joined := strings.Join(ids, ",")
	if !strings.Contains(joined, "d1") || !strings.Contains(joined, "d2") {
		t.Fatalf("freshest ids = %v", ids)
	}
}

func TestManyParsedQueriesExecute(t *testing.T) {
	s := buildStore(t)
	queries := []string{
		`FIND documents WHERE text ~ "gold"`,
		`FIND catalogs TOP 2`,
		`FIND documents WHERE topic = "jewelry" AND fresh < 200h`,
		`FIND holdings WHERE text ~ "ring"`,
		`FIND documents QOS completeness >= 0.5`,
	}
	for i, in := range queries {
		q, err := Parse(in)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		_ = Execute(s, q, nil, 1<<50)
	}
	// Fuzz-ish: junk inputs never panic, only error.
	for i := 0; i < 100; i++ {
		junk := fmt.Sprintf("FIND %d WHERE ~ %d", i, i)
		_, _ = Parse(junk)
	}
}

func TestParseNegation(t *testing.T) {
	q, err := Parse(`FIND documents WHERE text ~ "gold" AND NOT topic = "archaeology" AND NOT source = "spamhub"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.NotTopics) != 1 || q.NotTopics[0] != "archaeology" {
		t.Fatalf("notTopics = %v", q.NotTopics)
	}
	if len(q.NotSources) != 1 || q.NotSources[0] != "spamhub" {
		t.Fatalf("notSources = %v", q.NotSources)
	}
	// Negation only supports topic/source.
	if _, err := Parse(`FIND WHERE NOT text ~ "x"`); err == nil {
		t.Fatal("NOT text should be rejected")
	}
	if _, err := Parse(`FIND WHERE NOT topic ~ "x"`); err == nil {
		t.Fatal("NOT topic with wrong op should be rejected")
	}
	// Roundtrips through String().
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", q.String(), err)
	}
	if len(q2.NotTopics) != 1 || len(q2.NotSources) != 1 {
		t.Fatalf("roundtrip lost negations: %+v", q2)
	}
}

func TestExecuteNegation(t *testing.T) {
	s := buildStore(t)
	now := int64(1) << 50
	res := Execute(s, MustParse(`FIND documents WHERE text ~ "gold" AND NOT topic = "archaeology"`), nil, now)
	for _, r := range res {
		if r.Doc.ID == "d3" {
			t.Fatal("excluded topic leaked")
		}
	}
	if len(res) == 0 {
		t.Fatal("negation excluded everything")
	}
	res = Execute(s, MustParse(`FIND documents WHERE text ~ "gold" AND NOT source = "museum"`), nil, now)
	for _, r := range res {
		if r.Doc.Provenance == "museum" {
			t.Fatal("excluded source leaked")
		}
	}
}

func TestTopicOnlyQueryFindsBuriedDocs(t *testing.T) {
	s, err := docstore.Open(docstore.Options{ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	old := &docstore.Document{ID: "buried", Title: "old jewel", Topics: []string{"jewelry"}, CreatedAt: 1}
	if err := s.Put(old); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := s.Put(&docstore.Document{
			ID: fmt.Sprintf("f%03d", i), Title: "filler",
			Topics: []string{"news"}, CreatedAt: int64(1000 + i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	res := Execute(s, MustParse(`FIND documents WHERE topic = "jewelry" TOP 5`), nil, 1<<50)
	if len(res) != 1 || res[0].Doc.ID != "buried" {
		t.Fatalf("buried topical doc not found: %v", res)
	}
}

func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(input string) bool {
		// Any input must either parse or return a SyntaxError — never panic.
		q, err := Parse(input)
		if err != nil {
			var se *SyntaxError
			return errors.As(err, &se)
		}
		return q != nil && q.TopK > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// And structured-ish junk around real keywords.
	fragments := []string{"FIND", "WHERE", "AND", "NOT", "TOP", "QOS", `"x"`, "~", "=", "<", ">=", "7d", "0.5", "topic", "text", "fresh"}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		n := 1 + r.Intn(8)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = fragments[r.Intn(len(fragments))]
		}
		_, _ = Parse(strings.Join(parts, " "))
	}
}

package docstore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/feature"
)

func doc(id, title, text string, at int64, concept feature.Vector) *Document {
	return &Document{
		ID: id, Kind: KindArticle, Title: title, Text: text,
		CreatedAt: at, Concept: concept, Provenance: "test",
	}
}

func memStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Options{ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetDelete(t *testing.T) {
	s := memStore(t)
	d := doc("d1", "Gold Ring", "a byzantine gold ring with filigree", 10, feature.Vector{1, 0, 0, 0, 0, 0, 0, 0})
	if err := s.Put(d); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("d1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != "Gold Ring" {
		t.Fatalf("got %+v", got)
	}
	// Returned doc is a copy.
	got.Title = "mutated"
	again, _ := s.Get("d1")
	if again.Title != "Gold Ring" {
		t.Fatal("Get must return a copy")
	}
	if err := s.Delete("d1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("d1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Delete("d1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
	if err := s.Put(&Document{}); !errors.Is(err, ErrEmptyID) {
		t.Fatalf("empty id err = %v", err)
	}
}

func TestPutReplaces(t *testing.T) {
	s := memStore(t)
	if err := s.Put(doc("d1", "Old Title about silver", "silver celtic brooch", 5, nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(doc("d1", "New Title about gold", "gold byzantine ring", 9, nil)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	hits := s.SearchText("silver celtic", 10)
	if len(hits) != 0 {
		t.Fatalf("stale index entries: %v", hits)
	}
	hits = s.SearchText("gold byzantine", 10)
	if len(hits) != 1 || hits[0].Doc.ID != "d1" {
		t.Fatalf("replaced doc not searchable: %v", hits)
	}
	// Old timestamp must leave the time index.
	if got := s.RecentSince(0, 6); len(got) != 0 {
		t.Fatalf("old timestamp lingers: %v", got)
	}
}

func TestSearchTextRanking(t *testing.T) {
	s := memStore(t)
	docs := []*Document{
		doc("a", "Byzantine gold ring", "ancient byzantine gold ring filigree craftsmanship", 1, nil),
		doc("b", "Gold necklace", "modern gold necklace minimal design", 2, nil),
		doc("c", "Database systems", "query optimization transaction recovery", 3, nil),
	}
	for _, d := range docs {
		if err := s.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	hits := s.SearchText("byzantine gold ring", 10)
	if len(hits) < 2 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Doc.ID != "a" {
		t.Fatalf("best hit = %s", hits[0].Doc.ID)
	}
	for _, h := range hits {
		if h.Doc.ID == "c" {
			t.Fatal("irrelevant doc matched")
		}
	}
	if got := s.SearchText("", 10); len(got) != 0 {
		t.Fatal("empty query should match nothing")
	}
}

func TestSearchVector(t *testing.T) {
	s := memStore(t)
	for i := 0; i < 20; i++ {
		v := make(feature.Vector, 8)
		v[i%8] = 1
		if err := s.Put(doc(fmt.Sprintf("d%02d", i), "t", "x", int64(i), v)); err != nil {
			t.Fatal(err)
		}
	}
	q := feature.Vector{0, 0, 1, 0, 0, 0, 0, 0}
	hits := s.SearchVector(q, 3)
	if len(hits) != 3 {
		t.Fatalf("hits = %d", len(hits))
	}
	for _, h := range hits {
		if h.Score < 0.99 {
			t.Fatalf("expected exact matches first, got %v", hits)
		}
	}
}

func TestSearchHybrid(t *testing.T) {
	s := memStore(t)
	cv := feature.Vector{1, 0, 0, 0, 0, 0, 0, 0}
	// "a" matches text only; "b" matches vector only; "c" matches both.
	_ = s.Put(doc("a", "gold ring byzantine", "gold ring", 1, feature.Vector{0, 1, 0, 0, 0, 0, 0, 0}))
	_ = s.Put(doc("b", "unrelated words here", "nothing", 2, cv))
	_ = s.Put(doc("c", "gold ring", "byzantine gold", 3, cv))
	hits := s.SearchHybrid("gold ring byzantine", cv, 0.5, 3)
	if len(hits) == 0 || hits[0].Doc.ID != "c" {
		t.Fatalf("hybrid best = %v", hits)
	}
	// alpha extremes delegate.
	ht := s.SearchHybrid("gold ring byzantine", cv, 0, 3)
	if len(ht) == 0 || ht[0].Doc.ID == "b" {
		t.Fatalf("alpha=0 should be pure text: %v", ht)
	}
	hv := s.SearchHybrid("gold ring byzantine", cv, 1, 3)
	if len(hv) == 0 || hv[0].Score < 0.99 {
		t.Fatalf("alpha=1 should be pure vector: %v", hv)
	}
}

func TestRecentAndFreshest(t *testing.T) {
	s := memStore(t)
	for i := 1; i <= 10; i++ {
		if err := s.Put(doc(fmt.Sprintf("d%02d", i), "t", "x", int64(i*100), nil)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.RecentSince(300, 700)
	if len(got) != 5 {
		t.Fatalf("range size = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].CreatedAt < got[i-1].CreatedAt {
			t.Fatal("range scan not ascending")
		}
	}
	fresh := s.Freshest(3)
	if len(fresh) != 3 || fresh[0].CreatedAt != 1000 || fresh[2].CreatedAt != 800 {
		t.Fatalf("freshest = %v", fresh)
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put(doc(fmt.Sprintf("d%02d", i), fmt.Sprintf("title %d gold", i), "body text", int64(i), feature.Vector{1, 0, 0, 0, 0, 0, 0, 0})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("d07"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 49 {
		t.Fatalf("recovered %d docs, want 49", s2.Len())
	}
	if _, err := s2.Get("d07"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted doc resurrected")
	}
	// Indexes rebuilt.
	if hits := s2.SearchText("gold title", 5); len(hits) == 0 {
		t.Fatal("text index not rebuilt")
	}
	if hits := s2.SearchVector(feature.Vector{1, 0, 0, 0, 0, 0, 0, 0}, 5); len(hits) == 0 {
		t.Fatal("vector index not rebuilt")
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(doc(fmt.Sprintf("d%d", i), "t", "x", int64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: append garbage half-record.
	_, walPath := snapshotPaths(dir)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 200, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 10 {
		t.Fatalf("recovered %d docs, want 10", s2.Len())
	}
	// Store must keep working after truncation.
	if err := s2.Put(doc("new", "t", "x", 100, nil)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 11 {
		t.Fatalf("after torn-tail recovery + put: %d docs, want 11", s3.Len())
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		// Repeatedly overwrite the same ids: WAL grows, live set small.
		if err := s.Put(doc(fmt.Sprintf("d%d", i%3), "t", "body", int64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	preWAL := s.Stats().WALBytes
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().WALBytes; got != 0 {
		t.Fatalf("wal after compaction = %d", got)
	}
	if preWAL == 0 {
		t.Fatal("test did not exercise the WAL")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("after compaction reopen: %d docs, want 3", s2.Len())
	}
	if d, err := s2.Get("d0"); err != nil || d.CreatedAt != 27 {
		t.Fatalf("latest version lost: %+v err %v", d, err)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1, CompactAfterBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		if err := s.Put(doc("same", "t", "a reasonably long body to grow the wal quickly", int64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction now runs off the writer critical path: poll until the
	// background cycle has brought the WAL back under budget.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := s.Stats().WALBytes; got <= 2048+512 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never caught up: wal = %d", s.Stats().WALBytes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Snapshot file must exist.
	snapPath, _ := snapshotPaths(dir)
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatal("snapshot missing after auto-compaction")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := memStore(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(doc("x", "t", "b", 1, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("put on closed = %v", err)
	}
	if _, err := s.Get("x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("get on closed = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}

func TestStats(t *testing.T) {
	s := memStore(t)
	_ = s.Put(doc("a", "gold", "ring", 1, nil))
	_ = s.Put(doc("b", "silver", "brooch", 2, nil))
	_ = s.Delete("a")
	_ = s.SearchText("gold", 5)
	st := s.Stats()
	if st.Docs != 1 || st.Puts != 2 || st.Deletes != 1 || st.Searches != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotAtomicity(t *testing.T) {
	// A .tmp file left behind by a crashed compaction must not break Open.
	dir := t.TempDir()
	snapPath, _ := snapshotPaths(dir)
	if err := os.WriteFile(snapPath+".tmp", []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(doc("a", "t", "b", 1, nil)); err != nil {
		t.Fatal(err)
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "deep")
	s, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(doc("a", "t", "b", 1, nil)); err != nil {
		t.Fatal(err)
	}
}

func TestSearchVisual(t *testing.T) {
	s := memStore(t)
	ve := feature.NewVisualExtractor(3, 8, 12, 8, 0.05)
	r := rand.New(rand.NewSource(4))
	concepts := make([]feature.Vector, 4)
	for i := range concepts {
		concepts[i] = make(feature.Vector, 8)
		concepts[i][i] = 1
	}
	for i := 0; i < 12; i++ {
		vf := ve.Extract(r, concepts[i%4])
		d := doc(fmt.Sprintf("v%02d", i), "t", "x", int64(i), nil)
		d.ColorHist = vf.ColorHist
		d.Texture = vf.Texture
		if err := s.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	// One doc with no visual features must never appear.
	if err := s.Put(doc("textonly", "t", "x", 99, nil)); err != nil {
		t.Fatal(err)
	}
	q := ve.Extract(r, concepts[2])
	hits := s.SearchVisual(q, 0.5, 3)
	if len(hits) != 3 {
		t.Fatalf("hits = %d", len(hits))
	}
	for _, h := range hits {
		if h.Doc.ID == "textonly" {
			t.Fatal("featureless doc matched visually")
		}
		// Same-concept docs are v02, v06, v10.
		if h.Doc.ID != "v02" && h.Doc.ID != "v06" && h.Doc.ID != "v10" {
			t.Fatalf("wrong visual neighbors: %v", h.Doc.ID)
		}
	}
	if got := s.SearchVisual(feature.VisualFeatures{}, 0.5, 3); got != nil {
		t.Fatal("empty query should return nil")
	}
}

func TestNewestFindsOldTopicDocuments(t *testing.T) {
	s := memStore(t)
	// One old topical doc buried under many fresh off-topic docs.
	old := doc("old-jewel", "ancient brooch", "very old", 1, nil)
	old.Topics = []string{"jewelry"}
	if err := s.Put(old); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		d := doc(fmt.Sprintf("fresh%03d", i), "news", "irrelevant", int64(1000+i), nil)
		d.Topics = []string{"news"}
		if err := s.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Newest("jewelry", 10)
	if len(got) != 1 || got[0].Doc.ID != "old-jewel" || got[0].Score != 1 {
		t.Fatalf("Newest = %v", hitIDs(got))
	}
	if s.TopicCount("jewelry") != 1 || s.TopicCount("news") != 200 {
		t.Fatalf("counts: %d %d", s.TopicCount("jewelry"), s.TopicCount("news"))
	}
	// Newest-first ordering and k bound.
	newsDocs := s.Newest("news", 3)
	if len(newsDocs) != 3 || newsDocs[0].Doc.ID != "fresh199" {
		t.Fatalf("news order: %v", hitIDs(newsDocs))
	}
	// Replace moves topics; delete clears them.
	repl := doc("old-jewel", "recataloged", "now ceramics", 2, nil)
	repl.Topics = []string{"ceramics"}
	if err := s.Put(repl); err != nil {
		t.Fatal(err)
	}
	if s.TopicCount("jewelry") != 0 || s.TopicCount("ceramics") != 1 {
		t.Fatal("topic index not updated on replace")
	}
	if err := s.Delete("old-jewel"); err != nil {
		t.Fatal(err)
	}
	if s.TopicCount("ceramics") != 0 {
		t.Fatal("topic index not cleared on delete")
	}
	if got := s.Newest("nonexistent", 5); got != nil {
		t.Fatal("unknown topic should be nil")
	}
}

func TestNewestSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := doc("a", "t", "b", 5, nil)
	d.Topics = []string{"jewelry"}
	if err := s.Put(d); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Newest("jewelry", 5); len(got) != 1 {
		t.Fatal("topic index not rebuilt on recovery")
	}
}

package collab

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/profile"
	"repro/internal/query"
)

func TestORSetAddRemoveContains(t *testing.T) {
	s := NewORSet("a")
	s.Add("x", 1)
	if !s.Contains("x") || s.Len() != 1 {
		t.Fatal("add failed")
	}
	s.Remove("x")
	if s.Contains("x") || s.Len() != 0 {
		t.Fatal("remove failed")
	}
	// Re-add after remove works (new tag).
	s.Add("x", 2)
	if !s.Contains("x") {
		t.Fatal("re-add failed")
	}
	if v, ok := s.Get("x"); !ok || v.(int) != 2 {
		t.Fatalf("get = %v %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing item found")
	}
}

func TestORSetAddWins(t *testing.T) {
	// a and b both know x; a removes x while b concurrently re-adds it.
	a := NewORSet("a")
	a.Add("x", "orig")
	b := a.Clone("b")
	a.Remove("x")
	b.Add("x", "fresh")
	a.Merge(b)
	b.Merge(a)
	if !a.Contains("x") || !b.Contains("x") {
		t.Fatal("concurrent add must win over observed-remove")
	}
	// But a remove that observed all adds sticks after merge.
	b.Remove("x")
	a.Merge(b)
	if a.Contains("x") {
		t.Fatal("observed remove must propagate")
	}
}

func TestORSetMergeCommutesAndIdempotent(t *testing.T) {
	f := func(ops []uint8) bool {
		a, b := NewORSet("a"), NewORSet("b")
		for i, op := range ops {
			item := fmt.Sprintf("i%d", op%8)
			switch {
			case op%3 == 0:
				a.Add(item, i)
			case op%3 == 1:
				b.Add(item, i)
			default:
				if op%2 == 0 {
					a.Remove(item)
				} else {
					b.Remove(item)
				}
			}
		}
		ab := a.Clone("ab")
		ab.Merge(b)
		ba := b.Clone("ba")
		ba.Merge(a)
		if !reflect.DeepEqual(ab.Items(), ba.Items()) {
			return false
		}
		// Idempotence.
		again := ab.Clone("again")
		again.Merge(b)
		again.Merge(a)
		return reflect.DeepEqual(again.Items(), ab.Items())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestORSetMergeAssociative(t *testing.T) {
	a, b, c := NewORSet("a"), NewORSet("b"), NewORSet("c")
	a.Add("x", 1)
	b.Add("y", 2)
	b.Remove("y")
	c.Add("y", 3)
	c.Add("z", 4)
	// (a ∪ b) ∪ c
	ab := a.Clone("t1")
	ab.Merge(b)
	ab.Merge(c)
	// a ∪ (b ∪ c)
	bc := b.Clone("t2")
	bc.Merge(c)
	a2 := a.Clone("t3")
	a2.Merge(bc)
	if !reflect.DeepEqual(ab.Items(), a2.Items()) {
		t.Fatalf("associativity: %v vs %v", ab.Items(), a2.Items())
	}
}

func mkProfile(user string, hot int) *profile.Profile {
	p := profile.New(user, 8)
	p.Interests[hot] = 1
	return p
}

func res(id string, score float64, hot int) query.Result {
	v := make(feature.Vector, 8)
	if hot >= 0 {
		v[hot] = 1
	}
	return query.Result{Hit: docstore.Hit{Doc: &docstore.Document{ID: id, Concept: v}, Score: score}, Source: "s"}
}

func TestSessionWorkspaceFusion(t *testing.T) {
	s := NewSession("proj")
	s.Join(mkProfile("iris", 1))
	s.Join(mkProfile("jason", 3))
	if got := s.Members(); !reflect.DeepEqual(got, []string{"iris", "jason"}) {
		t.Fatalf("members = %v", got)
	}
	q := query.MustParse(`FIND documents WHERE text ~ "folk"`)
	err := s.RecordStep("iris", Step{Query: q}, []query.Result{res("d1", 0.9, 1), res("d2", 0.5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	err = s.RecordStep("jason", Step{Query: q}, []query.Result{res("d2", 0.7, 3), res("d3", 0.6, 3)})
	if err != nil {
		t.Fatal(err)
	}
	ws := s.Workspace()
	if len(ws) != 3 {
		t.Fatalf("workspace = %d items", len(ws))
	}
	if ws[0].DocID != "d1" || ws[0].AddedBy != "iris" {
		t.Fatalf("best = %+v", ws[0])
	}
	// Discard prunes for everyone.
	if err := s.Discard("jason", "d1"); err != nil {
		t.Fatal(err)
	}
	if len(s.Workspace()) != 2 {
		t.Fatal("discard failed")
	}
	// Non-members rejected.
	if err := s.RecordStep("zoe", Step{Query: q}, nil); !errors.Is(err, ErrNotMember) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Discard("zoe", "d2"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("err = %v", err)
	}
}

func TestThreadsAndTakeOver(t *testing.T) {
	s := NewSession("proj")
	s.Join(mkProfile("iris", 1))
	s.Join(mkProfile("jason", 3))
	q := query.MustParse(`FIND documents WHERE text ~ "jewelry"`)
	irisConcept := make(feature.Vector, 8)
	irisConcept[1] = 1
	_ = s.RecordStep("iris", Step{Query: q, Concept: irisConcept}, []query.Result{res("d1", 0.9, 1)})

	th, err := s.Thread("iris")
	if err != nil || len(th.Steps) != 1 || th.Steps[0].Found[0] != "d1" {
		t.Fatalf("thread = %+v err %v", th, err)
	}

	st, err := s.TakeOver("jason", "iris")
	if err != nil {
		t.Fatal(err)
	}
	if st.Query.Text != "jewelry" {
		t.Fatalf("takeover query = %+v", st.Query)
	}
	// Blended concept should mix iris's dimension 1 with jason's 3.
	if st.Concept[1] <= 0 || st.Concept[3] <= 0 {
		t.Fatalf("takeover concept = %v", st.Concept)
	}
	// Mutating the taken-over query must not affect iris's thread.
	st.Query.Text = "mutated"
	th2, _ := s.Thread("iris")
	if th2.Steps[0].Query.Text != "jewelry" {
		t.Fatal("takeover aliased the original query")
	}
	if _, err := s.TakeOver("zoe", "iris"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.TakeOver("iris", "jason"); !errors.Is(err, ErrNoThread) {
		t.Fatalf("empty-thread takeover err = %v", err)
	}
}

func TestMergeWorkspaceAcrossReplicas(t *testing.T) {
	a := NewSession("a")
	b := NewSession("b")
	a.Join(mkProfile("iris", 1))
	b.Join(mkProfile("jason", 3))
	q := query.MustParse(`FIND documents`)
	_ = a.RecordStep("iris", Step{Query: q}, []query.Result{res("d1", 0.9, 1)})
	_ = b.RecordStep("jason", Step{Query: q}, []query.Result{res("d2", 0.8, 3)})
	a.MergeWorkspace(b)
	if len(a.Workspace()) != 2 {
		t.Fatalf("merged workspace = %d", len(a.Workspace()))
	}
}

func TestRunSharedDedupes(t *testing.T) {
	q1 := query.MustParse(`FIND documents WHERE text ~ "folk jewelry" TOP 5`)
	q2 := query.MustParse(`FIND documents WHERE text ~ "folk jewelry" TOP 5`)
	q3 := query.MustParse(`FIND documents WHERE text ~ "something else" TOP 5`)
	execCount := 0
	exec := func(q *query.Query, _ feature.Vector) []query.Result {
		execCount++
		return []query.Result{res("d1", 0.9, 1), res("d2", 0.8, 3), res("d3", 0.7, 5)}
	}
	queries := []MemberQuery{
		{User: "iris", Q: q1, Gamma: 0.5},
		{User: "jason", Q: q2, Gamma: 0.5},
		{User: "zoe", Q: q3, Gamma: 0},
	}
	profiles := map[string]*profile.Profile{
		"iris":  mkProfile("iris", 1),
		"jason": mkProfile("jason", 3),
		"zoe":   mkProfile("zoe", 5),
	}
	personalize := func(user string, gamma float64, r query.Result) float64 {
		return profiles[user].PersonalScore(r.Score, r.Doc.Concept, gamma)
	}
	out, stats := RunShared(queries, exec, personalize)
	if execCount != 2 {
		t.Fatalf("source executions = %d, want 2", execCount)
	}
	if stats.Total != 3 || stats.Distinct != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if ws := stats.WorkSaved(); ws < 0.3 || ws > 0.34 {
		t.Fatalf("work saved = %v", ws)
	}
	// Personalization must differentiate iris and jason on the same raw set.
	if out[0][0].Doc.ID != "d1" {
		t.Fatalf("iris top = %v", out[0][0].Doc.ID)
	}
	if out[1][0].Doc.ID != "d2" {
		t.Fatalf("jason top = %v (should prefer concept 3)", out[1][0].Doc.ID)
	}
}

func TestRunSharedDistinctConcepts(t *testing.T) {
	q := query.MustParse(`FIND documents WHERE similar > 0.5 TOP 3`)
	c1 := make(feature.Vector, 4)
	c1[0] = 1
	c2 := make(feature.Vector, 4)
	c2[2] = 1
	execCount := 0
	exec := func(*query.Query, feature.Vector) []query.Result {
		execCount++
		return nil
	}
	_, stats := RunShared([]MemberQuery{
		{User: "a", Q: q, Concept: c1},
		{User: "b", Q: q, Concept: c2},
	}, exec, nil)
	if execCount != 2 || stats.Distinct != 2 {
		t.Fatalf("different concepts must not share: %d %+v", execCount, stats)
	}
}

func TestRunSharedEmpty(t *testing.T) {
	out, stats := RunShared(nil, func(*query.Query, feature.Vector) []query.Result { return nil }, nil)
	if len(out) != 0 || stats.Total != 0 || stats.WorkSaved() != 0 {
		t.Fatalf("empty shared run: %v %+v", out, stats)
	}
}

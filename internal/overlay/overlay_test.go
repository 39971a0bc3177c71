package overlay

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/sim"
)

// testHandler answers queries whose concept matches its own vector.
type testHandler struct {
	vec       feature.Vector
	threshold float64
}

func (h *testHandler) HandleQuery(q QueryMsg) any {
	if feature.Cosine(h.vec, q.Concept) >= h.threshold {
		return "hit"
	}
	return nil
}

func (h *testHandler) ContentVector() feature.Vector { return h.vec }

func buildOverlay(t *testing.T, n int, seed int64) (*sim.Kernel, *Overlay) {
	t.Helper()
	k := sim.NewKernel(seed)
	net := sim.NewNetwork(k, sim.FixedLatency(5*time.Millisecond), 0)
	ov := New(net, DefaultConfig())
	for i := 0; i < n; i++ {
		vec := make(feature.Vector, 8)
		vec[i%8] = 1
		ov.AddNode(i, &testHandler{vec: vec, threshold: 0.9})
	}
	ov.Bootstrap()
	return k, ov
}

func runQuery(k *sim.Kernel, ov *Overlay, q QueryMsg, dur time.Duration) []Answer {
	var answers []Answer
	ov.Query(q, func(a Answer) { answers = append(answers, a) })
	_ = k.RunUntil(k.Now() + dur)
	ov.CloseQuery(q.ID)
	return answers
}

func conceptFor(dim int) feature.Vector {
	v := make(feature.Vector, 8)
	v[dim] = 1
	return v
}

func TestFloodReachesMatchingNodes(t *testing.T) {
	k, ov := buildOverlay(t, 64, 1)
	q := QueryMsg{ID: "q1", Origin: 0, Concept: conceptFor(3), TTL: 6, Strategy: Flood}
	answers := runQuery(k, ov, q, 5*time.Second)
	// 64 nodes, 8 concept buckets: 8 nodes match concept 3.
	if len(answers) < 6 {
		t.Fatalf("flood found only %d of ~8 matches", len(answers))
	}
	seen := map[int]bool{}
	for _, a := range answers {
		if seen[a.From] {
			t.Fatalf("duplicate answer from %d", a.From)
		}
		seen[a.From] = true
		if a.From%8 != 3 {
			t.Fatalf("non-matching node %d answered", a.From)
		}
	}
}

func TestRandomWalkFindsSome(t *testing.T) {
	k, ov := buildOverlay(t, 64, 2)
	q := QueryMsg{ID: "q1", Origin: 0, Concept: conceptFor(2), TTL: 40, Strategy: RandomWalk, Walkers: 4}
	answers := runQuery(k, ov, q, 30*time.Second)
	if len(answers) == 0 {
		t.Fatal("random walk found nothing")
	}
}

func TestSemanticBeatsFloodOnTraffic(t *testing.T) {
	k, ov := buildOverlay(t, 128, 3)
	// Let gossip + shortcut refresh settle.
	_ = k.RunUntil(k.Now() + time.Minute)

	before := ov.QueryMsgs
	fa := runQuery(k, ov, QueryMsg{ID: "qf", Origin: 1, Concept: conceptFor(5), TTL: 5, Strategy: Flood}, 5*time.Second)
	floodMsgs := ov.QueryMsgs - before

	before = ov.QueryMsgs
	sa := runQuery(k, ov, QueryMsg{ID: "qs", Origin: 1, Concept: conceptFor(5), TTL: 5, Strategy: Semantic, Fanout: 3}, 5*time.Second)
	semMsgs := ov.QueryMsgs - before

	if len(fa) == 0 || len(sa) == 0 {
		t.Fatalf("answers: flood=%d semantic=%d", len(fa), len(sa))
	}
	if semMsgs >= floodMsgs {
		t.Fatalf("semantic traffic %d not below flood %d", semMsgs, floodMsgs)
	}
	// Semantic should retain a decent fraction of flood's recall here.
	if float64(len(sa)) < 0.3*float64(len(fa)) {
		t.Fatalf("semantic recall too low: %d vs flood %d", len(sa), len(fa))
	}
}

func TestGossipKeepsViewsFresh(t *testing.T) {
	k, ov := buildOverlay(t, 32, 4)
	_ = k.RunUntil(k.Now() + 2*time.Minute)
	if ov.GossipMsgs == 0 {
		t.Fatal("no gossip happened")
	}
	for _, id := range ov.IDs() {
		n := ov.Node(id)
		if len(n.view) == 0 {
			t.Fatalf("node %d has empty view", id)
		}
		for _, p := range n.view {
			if p == id {
				t.Fatalf("node %d has self in view", id)
			}
		}
		if len(n.view) > ov.cfg.ViewSize {
			t.Fatalf("node %d view overflow: %d", id, len(n.view))
		}
	}
}

func TestShortcutsAreSemanticallyClose(t *testing.T) {
	k, ov := buildOverlay(t, 64, 5)
	_ = k.RunUntil(k.Now() + 2*time.Minute)
	better, total := 0, 0
	for _, id := range ov.IDs() {
		n := ov.Node(id)
		self := n.handler.ContentVector()
		for _, sc := range n.shortcuts {
			total++
			if feature.Cosine(self, ov.Node(sc).handler.ContentVector()) > 0.9 {
				better++
			}
		}
	}
	if total == 0 {
		t.Fatal("no shortcuts formed")
	}
	// With 8 nodes per concept bucket and 64 nodes, gossip sampling should
	// find same-bucket peers for most nodes over time.
	if float64(better)/float64(total) < 0.5 {
		t.Fatalf("only %d/%d shortcuts are semantically close", better, total)
	}
}

func TestQueryUnderChurn(t *testing.T) {
	k := sim.NewKernel(6)
	net := sim.NewNetwork(k, sim.FixedLatency(5*time.Millisecond), 0)
	ov := New(net, DefaultConfig())
	n := 64
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		ids[i] = i
		vec := make(feature.Vector, 8)
		vec[i%8] = 1
		ov.AddNode(i, &testHandler{vec: vec, threshold: 0.9})
	}
	ov.Bootstrap()
	sim.StartChurn(net, ids[1:], 20, 10*time.Second, nil) // spare the origin
	_ = k.RunUntil(30 * time.Second)
	answers := runQuery(k, ov, QueryMsg{ID: "q1", Origin: 0, Concept: conceptFor(1), TTL: 6, Strategy: Flood}, 10*time.Second)
	// Churn costs some completeness but not everything.
	if len(answers) == 0 {
		t.Fatal("churn wiped out all answers")
	}
}

func TestTTLBoundsPropagation(t *testing.T) {
	k, ov := buildOverlay(t, 64, 7)
	before := ov.QueryMsgs
	runQuery(k, ov, QueryMsg{ID: "q0", Origin: 0, Concept: conceptFor(0), TTL: 0, Strategy: Flood}, 5*time.Second)
	if ov.QueryMsgs != before {
		t.Fatal("TTL=0 query was forwarded")
	}
}

func TestManyQueriesIndependent(t *testing.T) {
	k, ov := buildOverlay(t, 32, 8)
	for i := 0; i < 5; i++ {
		q := QueryMsg{ID: fmt.Sprintf("q%d", i), Origin: i, Concept: conceptFor(i % 8), TTL: 5, Strategy: Flood}
		answers := runQuery(k, ov, q, 5*time.Second)
		if len(answers) == 0 {
			t.Fatalf("query %d found nothing", i)
		}
	}
}

func TestResetSeenAllowsRepeatQueryIDs(t *testing.T) {
	k, ov := buildOverlay(t, 32, 9)
	q := QueryMsg{ID: "repeat", Origin: 0, Concept: conceptFor(2), TTL: 5, Strategy: Flood}
	first := runQuery(k, ov, q, 5*time.Second)
	if len(first) == 0 {
		t.Fatal("first run found nothing")
	}
	// Same id again without reset: dedup suppresses everything.
	second := runQuery(k, ov, q, 5*time.Second)
	if len(second) != 0 {
		t.Fatalf("dedup failed: %d answers", len(second))
	}
	// After ResetSeen the same id works again (experiment repetitions).
	ov.ResetSeen()
	third := runQuery(k, ov, q, 5*time.Second)
	if len(third) == 0 {
		t.Fatal("ResetSeen did not clear dedup state")
	}
}

// TestSameSeedSameOverlay pins that the overlay is a function of its seed:
// two overlays built from one seed, run through several gossip and
// shortcut-refresh periods, end with the same views, shortcuts and message
// counts. Walking the node map while drawing from the seeded stream breaks
// this.
func TestSameSeedSameOverlay(t *testing.T) {
	k1, ov1 := buildOverlay(t, 64, 10)
	k2, ov2 := buildOverlay(t, 64, 10)
	_ = k1.RunUntil(k1.Now() + 2*time.Minute)
	_ = k2.RunUntil(k2.Now() + 2*time.Minute)
	if ov1.GossipMsgs == 0 || ov1.GossipMsgs != ov2.GossipMsgs {
		t.Fatalf("gossip messages %d vs %d", ov1.GossipMsgs, ov2.GossipMsgs)
	}
	for _, id := range ov1.IDs() {
		n1, n2 := ov1.Node(id), ov2.Node(id)
		if !slices.Equal(n1.view, n2.view) || !slices.Equal(n1.shortcuts, n2.shortcuts) {
			t.Fatalf("node %d: view %v vs %v, shortcuts %v vs %v", id, n1.view, n2.view, n1.shortcuts, n2.shortcuts)
		}
	}
}

package core

import (
	"fmt"
	"testing"

	"repro/internal/profile"
	"repro/internal/workload"
)

func TestLiveCompareMidFlightModification(t *testing.T) {
	a, g, _ := buildWorld(t, 20, 100, 2)
	s := a.NewSession(irisProfile(g, 0))
	node := a.Node(workload.SourceName(0))

	// Start comparing against one reference object (topic 0).
	lc, err := s.StartCompare(0.85, g.Topics[0].Center)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Stop()
	if lc.Objects() != 1 {
		t.Fatalf("objects = %d", lc.Objects())
	}

	ingestTopic := func(topic, n int, prefix string) {
		for i := 0; i < n; i++ {
			d := &workload.Doc{}
			_ = d
			doc := g.GenCorpus(1, 1.1, 0)[0].Doc
			doc.ID = fmt.Sprintf("%s%02d", prefix, i)
			doc.Concept = g.SampleConcept(topic, 0.05)
			if err := node.Ingest(doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingestTopic(0, 5, "t0a")
	ingestTopic(3, 5, "t3a")
	before := len(lc.Matches())
	if before != 5 {
		t.Fatalf("matches before modification = %d, want 5 (topic 0 only)", before)
	}

	// Mid-flight: add a second reference object (topic 3).
	if err := lc.AddObject(g.Topics[3].Center); err != nil {
		t.Fatal(err)
	}
	if lc.Objects() != 2 {
		t.Fatalf("objects = %d", lc.Objects())
	}
	ingestTopic(0, 3, "t0b")
	ingestTopic(3, 3, "t3b")
	matches := lc.Matches()
	if len(matches) != before+6 {
		t.Fatalf("matches after modification = %d, want %d", len(matches), before+6)
	}
	// The topic-3 matches must credit the second object.
	sawObj1 := false
	for _, m := range matches {
		if m.ObjectIdx == 1 {
			sawObj1 = true
			if m.Similarity < 0.85 {
				t.Fatalf("match below threshold: %v", m.Similarity)
			}
		}
	}
	if !sawObj1 {
		t.Fatal("no matches credited to the added object")
	}

	// Stop: no further matches, AddObject fails.
	lc.Stop()
	ingestTopic(0, 2, "t0c")
	if len(lc.Matches()) != len(matches) {
		t.Fatal("matches accumulated after Stop")
	}
	if err := lc.AddObject(g.Topics[1].Center); err == nil {
		t.Fatal("AddObject after Stop should fail")
	}
}

func TestLiveCompareDeduplicates(t *testing.T) {
	a, g, _ := buildWorld(t, 21, 50, 1)
	s := a.NewSession(irisProfile(g, 0))
	// Two overlapping reference objects: an item matching both must appear
	// once.
	lc, err := s.StartCompare(0.8, g.Topics[0].Center, g.SampleConcept(0, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Stop()
	node := a.Node(workload.SourceName(0))
	doc := g.GenCorpus(1, 1.1, 0)[0].Doc
	doc.ID = "dup-target"
	doc.Concept = g.Topics[0].Center.Clone()
	if err := node.Ingest(doc); err != nil {
		t.Fatal(err)
	}
	if n := len(lc.Matches()); n != 1 {
		t.Fatalf("matches = %d, want 1 (dedup)", n)
	}
}

func TestCompleteQueries(t *testing.T) {
	a, g, _ := buildWorld(t, 22, 400, 2)
	// Neutral interests (zero vector) so concept blending cannot steer;
	// only the completed query text can.
	p := profile.New("iris", 32)
	// Iris strongly likes two topical vocabulary terms.
	p.TermAffinity[g.Topics[0].Vocab[0]] = 1.5
	p.TermAffinity[g.Topics[0].Vocab[1]] = 1.2
	p.TermAffinity["meh"] = 0.1 // below completion threshold
	s := a.NewSession(p)
	s.Gamma = 0
	s.CompleteQueries = true

	// A query mentioning only common (non-topical) words: completion should
	// pull in the liked topical terms and steer results to topic 0.
	common := g.Common[0] + " " + g.Common[1]
	ans, err := s.Ask(fmt.Sprintf(`FIND documents WHERE text ~ "%s" TOP 8`, common), nil)
	if err != nil {
		t.Fatal(err)
	}
	withCounts := topicOfResults(g, ans)

	s.CompleteQueries = false
	ans2, err := s.Ask(fmt.Sprintf(`FIND documents WHERE text ~ "%s" TOP 8`, common), nil)
	if err != nil {
		t.Fatal(err)
	}
	withoutCounts := topicOfResults(g, ans2)
	if withCounts[0] <= withoutCounts[0] {
		t.Fatalf("completion did not steer: with=%v without=%v", withCounts, withoutCounts)
	}
}

func TestAskProgressive(t *testing.T) {
	a, g, _ := buildWorld(t, 23, 600, 4)
	s := a.NewSession(irisProfile(g, 0))
	topic := g.Topics[0]
	var partials []Partial
	ans, err := s.AskProgressive(
		fmt.Sprintf(`FIND documents WHERE topic = "%s" TOP 10`, topic.Name),
		topic.Center,
		func(p Partial) { partials = append(partials, p) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(partials) == 0 {
		t.Fatal("no progressive deliveries")
	}
	// Partials arrive in plan order with consistent progress counters.
	for i, p := range partials {
		if p.SourcesDone != i+1 {
			t.Fatalf("partial %d has SourcesDone=%d", i, p.SourcesDone)
		}
		if p.SourcesPlanned < len(partials) {
			t.Fatalf("planned %d < delivered %d", p.SourcesPlanned, len(partials))
		}
		if p.Source == "" {
			t.Fatal("partial missing source")
		}
		if p.Delivered.Latency <= 0 {
			t.Fatal("partial missing delivered QoS")
		}
	}
	// The final answer covers at least what any single partial delivered.
	if len(ans.Results) == 0 {
		t.Fatal("final answer empty")
	}
	// Every partial's contracts were settled into the answer.
	if len(ans.Outcomes) < len(partials) {
		t.Fatalf("outcomes %d < partials %d", len(ans.Outcomes), len(partials))
	}
	// Progressive and plain Ask agree on the final fused content.
	s2 := a.NewSession(irisProfile(g, 0))
	ans2, err := s2.Ask(fmt.Sprintf(`FIND documents WHERE topic = "%s" TOP 10`, topic.Name), topic.Center)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans2.Results) == 0 {
		t.Fatal("plain ask empty")
	}
}

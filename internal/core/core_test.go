package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ctxmodel"
	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/feedsys"
	"repro/internal/profile"
	"repro/internal/qos"
	"repro/internal/social"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// buildWorld assembles an agora with generated content spread over
// specialized sources.
func buildWorld(t *testing.T, seed int64, numDocs, numSources int) (*Agora, *workload.Generator, []workload.Doc) {
	t.Helper()
	a := New(Config{Seed: seed, ConceptDim: 32})
	g := workload.NewGenerator(seed, 32, 8)
	docs := g.GenCorpus(numDocs, 1.2, int64(time.Hour))
	bySource := g.AssignToSources(docs, numSources, 0.8)
	for i, list := range bySource {
		n, err := a.AddNode(workload.SourceName(i), DefaultEconomics(), DefaultBehavior())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range list {
			if err := n.Ingest(d.Doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a, g, docs
}

func irisProfile(g *workload.Generator, topic int) *profile.Profile {
	p := profile.New("iris", 32)
	p.Interests = g.Topics[topic].Center.Clone()
	return p
}

func TestAskEndToEnd(t *testing.T) {
	a, g, docs := buildWorld(t, 1, 600, 4)
	s := a.NewSession(irisProfile(g, 0))
	topic := g.Topics[0]
	aql := fmt.Sprintf(`FIND documents WHERE text ~ "%s" AND topic = "%s" TOP 10`,
		topic.Vocab[0]+" "+topic.Vocab[1], topic.Name)
	ans, err := s.Ask(aql, topic.Center)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range ans.Results {
		if r.Doc.Topics[0] != topic.Name {
			t.Fatalf("off-topic result %v", r.Doc.Topics)
		}
	}
	if len(ans.Contracts) == 0 {
		t.Fatal("no contracts signed")
	}
	for _, c := range ans.Contracts {
		if c.Status != qos.StatusFulfilled && c.Status != qos.StatusBreached && c.Status != qos.StatusCancelled {
			t.Fatalf("contract left dangling: %v", c.Status)
		}
	}
	if ans.Delivered.Price <= 0 {
		t.Fatalf("nothing paid: %+v", ans.Delivered)
	}
	if ans.Delivered.Latency <= 0 {
		t.Fatal("no latency recorded")
	}
	// Ground-truth completeness: most topic docs live in the contracted
	// sources; with TopK=10 we can't see them all, but results are on topic.
	rel := workload.RelevantSet(docs, 0)
	hits := 0
	for _, r := range ans.Results {
		if rel[r.Doc.ID] {
			hits++
		}
	}
	if hits < len(ans.Results)/2 {
		t.Fatalf("only %d/%d relevant", hits, len(ans.Results))
	}
}

func TestAskParseError(t *testing.T) {
	a, g, _ := buildWorld(t, 2, 50, 2)
	s := a.NewSession(irisProfile(g, 0))
	if _, err := s.Ask("GARBAGE QUERY", nil); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestAskNoProvidersForEmptyAgora(t *testing.T) {
	a := New(Config{Seed: 3, ConceptDim: 32})
	g := workload.NewGenerator(3, 32, 8)
	s := a.NewSession(irisProfile(g, 0))
	if _, err := s.Ask(`FIND documents WHERE text ~ "x"`, nil); !errors.Is(err, ErrNoProviders) {
		t.Fatalf("err = %v", err)
	}
}

// TestIngestBatch pins batch-ingest equivalence: a node fed through one
// IngestBatch must end up indistinguishable from a node fed the same
// documents through sequential Ingest calls — advertisement counters,
// content vector, stored documents, provenance stamping, and feed-bus
// publication (every item, in batch order).
func TestIngestBatch(t *testing.T) {
	a := New(Config{Seed: 9, ConceptDim: 8})
	seq, err := a.AddNode("seq", DefaultEconomics(), DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	bat, err := a.AddNode("bat", DefaultEconomics(), DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []*docstore.Document {
		docs := make([]*docstore.Document, 12)
		for i := range docs {
			d := &docstore.Document{
				ID:        fmt.Sprintf("d%02d", i),
				Kind:      docstore.KindArticle,
				Title:     fmt.Sprintf("harvest report %d", i),
				Text:      "seasonal harvest figures",
				Topics:    []string{"t" + fmt.Sprint(i%3)},
				CreatedAt: int64(i),
			}
			if i%2 == 0 {
				v := make(feature.Vector, 8)
				v[i%8] = 1
				d.Concept = v
			}
			docs[i] = d
		}
		return docs
	}
	var delivered []string
	if err := a.Feeds.Subscribe(&feedsys.Subscription{
		ID: "sub", Owner: "iris", Terms: []string{"harvest"},
		Deliver: func(it feedsys.Item) {
			if it.FeedID == "bat" {
				delivered = append(delivered, it.ID)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	for _, d := range mk() {
		if err := seq.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := bat.IngestBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := bat.IngestBatch(mk()); err != nil {
		t.Fatal(err)
	}
	if seq.TotalDocs() != bat.TotalDocs() || bat.TotalDocs() != 12 {
		t.Fatalf("totals diverged: seq=%d bat=%d", seq.TotalDocs(), bat.TotalDocs())
	}
	for i := 0; i < 3; i++ {
		topic := "t" + fmt.Sprint(i)
		if seq.TopicCount(topic) != bat.TopicCount(topic) {
			t.Fatalf("topic %s: seq=%d bat=%d", topic, seq.TopicCount(topic), bat.TopicCount(topic))
		}
	}
	sv, bv := seq.ContentVector(), bat.ContentVector()
	for i := range sv {
		if sv[i] != bv[i] {
			t.Fatalf("content vectors diverged at %d: %v vs %v", i, sv, bv)
		}
	}
	bat.Store.All(func(d *docstore.Document) bool {
		if d.Provenance != "bat" {
			t.Errorf("doc %s provenance = %q, want node name", d.ID, d.Provenance)
			return false
		}
		return true
	})
	if len(delivered) != 12 {
		t.Fatalf("feed bus saw %d items, want 12", len(delivered))
	}
	for i, id := range delivered {
		if id != fmt.Sprintf("d%02d", i) {
			t.Fatalf("feed publication out of batch order: %v", delivered)
		}
	}
}

// TestAdvertisementCountsTheStore pins that a node advertises what its
// store holds: a re-ingested document is one document, a topic listed twice
// on it is one topic hit, and a delete takes both back.
func TestAdvertisementCountsTheStore(t *testing.T) {
	a := New(Config{Seed: 5, ConceptDim: 8})
	n, err := a.AddNode("museum", DefaultEconomics(), DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	d := &docstore.Document{
		ID: "ring-1", Kind: docstore.KindArticle, Title: "gold ring",
		Text: "a gold ring", Topics: []string{"jewelry", "jewelry"},
	}
	for i := 0; i < 2; i++ {
		if err := n.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	if n.TotalDocs() != 1 || n.Store.Len() != 1 {
		t.Fatalf("TotalDocs = %d, Store.Len = %d, want 1 and 1", n.TotalDocs(), n.Store.Len())
	}
	if n.TopicCount("jewelry") != 1 || n.Store.TopicCount("jewelry") != 1 {
		t.Fatalf("TopicCount = %d, Store.TopicCount = %d, want 1 and 1", n.TopicCount("jewelry"), n.Store.TopicCount("jewelry"))
	}
	est := n.EstimateFor([]string{"jewelry"}, 2, qos.NewReputationLedger(0.98, 32).Belief("museum"), uncertainty.MakeInterval(0.05, 2))
	if got := est.Coverage.Mean(); got < 0.4 || got > 0.6 {
		t.Fatalf("estimate coverage %.2f from one held document of two, want ~0.5", got)
	}
	if err := n.Store.Delete("ring-1"); err != nil {
		t.Fatal(err)
	}
	if n.TotalDocs() != 0 || n.TopicCount("jewelry") != 0 {
		t.Fatalf("after delete: TotalDocs = %d, TopicCount = %d, want 0 and 0", n.TotalDocs(), n.TopicCount("jewelry"))
	}
}

func TestLedgerLearnsToAvoidShirkers(t *testing.T) {
	a := New(Config{Seed: 4, ConceptDim: 32})
	g := workload.NewGenerator(4, 32, 4)
	docs := g.GenCorpus(400, 1.1, 0)
	// Two sources with identical content; one reliable, one shirker.
	good, _ := a.AddNode("good", DefaultEconomics(), DefaultBehavior())
	badBeh := DefaultBehavior()
	badBeh.Reliability = 0.05
	bad, _ := a.AddNode("bad", DefaultEconomics(), badBeh)
	for _, d := range docs {
		d1 := d.Doc.Clone()
		d1.ID = d.Doc.ID + "-g"
		_ = good.Ingest(d1)
		d2 := d.Doc.Clone()
		d2.ID = d.Doc.ID + "-b"
		_ = bad.Ingest(d2)
	}
	s := a.NewSession(irisProfile(g, 0))
	topic := g.Topics[0]
	for i := 0; i < 25; i++ {
		_, _ = s.Ask(fmt.Sprintf(`FIND documents WHERE topic = "%s" TOP 5`, topic.Name), topic.Center)
	}
	if s.Ledger.Trust("good") <= s.Ledger.Trust("bad") {
		t.Fatalf("ledger failed to separate: good=%v bad=%v",
			s.Ledger.Trust("good"), s.Ledger.Trust("bad"))
	}
}

func TestPersonalizationAffectsRanking(t *testing.T) {
	a, g, _ := buildWorld(t, 5, 600, 2)
	// Two users with different interests issuing the same broad query.
	iris := profile.New("iris", 32)
	iris.Interests = g.Topics[0].Center.Clone()
	jason := profile.New("jason", 32)
	jason.Interests = g.Topics[1].Center.Clone()

	sIris := a.NewSession(iris)
	sJason := a.NewSession(jason)
	sIris.Gamma = 0.8
	sJason.Gamma = 0.8
	// Broad query with no topical text: personalization must steer.
	aql := `FIND documents TOP 8`
	aIris, err := sIris.Ask(aql, nil)
	if err != nil {
		t.Fatal(err)
	}
	aJason, err := sJason.Ask(aql, nil)
	if err != nil {
		t.Fatal(err)
	}
	irisTop := topicOfResults(g, aIris)
	jasonTop := topicOfResults(g, aJason)
	if irisTop[0] < irisTop[1] || jasonTop[1] < jasonTop[0] {
		t.Fatalf("personalization failed: iris=%v jason=%v", irisTop, jasonTop)
	}
}

func topicOfResults(g *workload.Generator, ans *Answer) map[int]int {
	counts := map[int]int{}
	for _, r := range ans.Results {
		best, bestCos := -1, -1.0
		for _, tp := range g.Topics {
			if c := feature.Cosine(r.Doc.Concept, tp.Center); c > bestCos {
				bestCos = c
				best = tp.ID
			}
		}
		counts[best]++
	}
	return counts
}

func TestContextVariantSwitchesBehavior(t *testing.T) {
	a, g, _ := buildWorld(t, 6, 300, 2)
	p := irisProfile(g, 0)
	// Travel variant: interested in topic 3 instead.
	p.Variants["travel"] = &profile.Variant{Label: "travel", Interests: g.Topics[3].Center.Clone()}
	s := a.NewSession(p)
	s.Gamma = 0.9
	s.Rules.Add(ctxmodel.Rule{
		Condition: ctxmodel.Condition{HourFrom: -1, HourTo: -1, Location: "travel:*"},
		Variant:   "travel", Priority: 5,
	})
	ans, err := s.Ask(`FIND documents TOP 6`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ans.ContextLabel != "" {
		t.Fatalf("base context label = %q", ans.ContextLabel)
	}
	baseTopics := topicOfResults(g, ans)

	s.Context = ctxmodel.Context{Location: "travel:paris", Hour: -1}
	ans2, err := s.Ask(`FIND documents TOP 6`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.ContextLabel != "travel" {
		t.Fatalf("travel context label = %q", ans2.ContextLabel)
	}
	travelTopics := topicOfResults(g, ans2)
	if travelTopics[3] <= baseTopics[3] {
		t.Fatalf("context variant did not shift results: base=%v travel=%v", baseTopics, travelTopics)
	}
}

func TestSocialRerankInSession(t *testing.T) {
	a, g, _ := buildWorld(t, 7, 400, 2)
	iris := irisProfile(g, 0)
	jason := profile.New("jason", 32)
	jason.Interests = g.Topics[2].Center.Clone()
	a.Profiles.Put(jason)
	a.Graph.AddEdge("iris", "jason", 2)
	a.ACL.Grant("jason", "iris", social.ScopeAll)

	s := a.NewSession(iris)
	s.Gamma = 0
	s.Beta = 0.7
	ans, err := s.Ask(`FIND documents TOP 10`, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := topicOfResults(g, ans)
	if counts[2] == 0 {
		t.Logf("warning: no topic-2 docs surfaced; counts=%v", counts)
	}
	// With beta=0 the friend has no influence; compare orderings.
	s2 := a.NewSession(irisProfile(g, 0))
	s2.Gamma = 0
	s2.Beta = 0
	ans2, err := s2.Ask(`FIND documents TOP 10`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) == 0 || len(ans2.Results) == 0 {
		t.Fatal("no results")
	}
}

func TestFeedsDeliverToSubscribers(t *testing.T) {
	a, g, _ := buildWorld(t, 8, 100, 2)
	s := a.NewSession(irisProfile(g, 0))
	topic := g.Topics[0]
	subID, err := s.Subscribe(nil, topic.Center, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// New auction items arrive at a node.
	node := a.Node(workload.SourceName(0))
	newDocs := g.GenCorpus(40, 1.1, 0)
	for i, d := range newDocs {
		d.Doc.ID = fmt.Sprintf("new%03d", i)
		if err := node.Ingest(d.Doc); err != nil {
			t.Fatal(err)
		}
	}
	if s.Inbox.Len() == 0 {
		t.Fatal("no feed deliveries")
	}
	for _, it := range s.Inbox.Snapshot() {
		if feature.Cosine(it.Concept, topic.Center) < 0.8 {
			t.Fatalf("off-topic feed item delivered: %v", it.ID)
		}
	}
	got := s.Inbox.Len()
	if err := s.Unsubscribe(subID); err != nil {
		t.Fatal(err)
	}
	d := newDocs[0]
	d.Doc.ID = "after-unsub"
	_ = node.Ingest(d.Doc)
	if s.Inbox.Len() != got {
		t.Fatal("delivery after unsubscribe")
	}
}

func TestBrowseAndDetector(t *testing.T) {
	a, g, _ := buildWorld(t, 9, 100, 2)
	s := a.NewSession(irisProfile(g, 0))
	docs, err := s.Browse(workload.SourceName(0), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("browse returned nothing")
	}
	if _, err := s.Browse("nope", 5); err == nil {
		t.Fatal("unknown source should error")
	}
	for i := 0; i < 15; i++ {
		_, _ = s.Browse(workload.SourceName(0), 1)
	}
	if task := s.Detector.Task(); task != ctxmodel.TaskExplore {
		t.Fatalf("detector task = %q", task)
	}
}

func TestFeedbackLearnsProfile(t *testing.T) {
	a, g, _ := buildWorld(t, 10, 100, 2)
	p := profile.New("newbie", 32)
	s := a.NewSession(p)
	topic := g.Topics[1]
	var events []profile.Event
	for i := 0; i < 30; i++ {
		events = append(events, profile.Event{
			Type:    profile.EventSave,
			Concept: topic.Center,
			Terms:   []string{topic.Vocab[0]},
			Source:  workload.SourceName(0), Satisfied: true,
		})
	}
	s.Feedback(events)
	if feature.Cosine(s.Profile.Interests, topic.Center) < 0.8 {
		t.Fatal("profile did not learn")
	}
	// Stored profile reflects learning.
	stored := a.Profiles.Get("newbie")
	if stored == nil || feature.Cosine(stored.Interests, topic.Center) < 0.8 {
		t.Fatal("profile store not updated")
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	a, g, _ := buildWorld(t, 11, 100, 2)
	s := a.NewSession(irisProfile(g, 0))
	before := a.Kernel().Now()
	_, err := s.Ask(`FIND documents TOP 3`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kernel().Now() <= before {
		t.Fatal("virtual time did not advance with work")
	}
}

func TestDuplicateNodeRejected(t *testing.T) {
	a := New(Config{Seed: 12, ConceptDim: 8})
	if _, err := a.AddNode("x", DefaultEconomics(), DefaultBehavior()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddNode("x", DefaultEconomics(), DefaultBehavior()); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

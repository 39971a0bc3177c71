package profile

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/qos"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func concept(dim, hot int) feature.Vector {
	v := make(feature.Vector, dim)
	v[hot] = 1
	return v
}

func TestLearnerMovesInterestsTowardEngagement(t *testing.T) {
	p := New("iris", 8)
	l := NewLearner()
	jewelry := concept(8, 2)
	for i := 0; i < 50; i++ {
		l.Observe(p, Event{Type: EventSave, Concept: jewelry, Terms: []string{"gold", "ring"}})
	}
	if feature.Cosine(p.Interests, jewelry) < 0.9 {
		t.Fatalf("interests cosine = %v", feature.Cosine(p.Interests, jewelry))
	}
	if p.TermAffinity["gold"] <= 0 {
		t.Fatalf("gold affinity = %v", p.TermAffinity["gold"])
	}
	if p.Evidence != 50 {
		t.Fatalf("evidence = %v", p.Evidence)
	}
}

func TestLearnerSkipsRepel(t *testing.T) {
	p := New("iris", 8)
	l := NewLearner()
	liked, disliked := concept(8, 1), concept(8, 5)
	for i := 0; i < 40; i++ {
		l.Observe(p, Event{Type: EventSave, Concept: liked, Terms: []string{"dance"}})
		l.Observe(p, Event{Type: EventSkip, Concept: disliked, Terms: []string{"spam"}})
	}
	if feature.Cosine(p.Interests, liked) <= feature.Cosine(p.Interests, disliked) {
		t.Fatal("liked concept should dominate")
	}
	if p.TermAffinity["spam"] >= 0 {
		t.Fatalf("spam affinity = %v", p.TermAffinity["spam"])
	}
}

func TestLearnerSourceTrust(t *testing.T) {
	p := New("iris", 4)
	l := NewLearner()
	for i := 0; i < 20; i++ {
		l.Observe(p, Event{Type: EventClick, Source: "museum", Satisfied: true})
		l.Observe(p, Event{Type: EventClick, Source: "spamhub", Satisfied: false})
	}
	if p.Trust("museum") < 0.8 || p.Trust("spamhub") > 0.2 {
		t.Fatalf("trusts: museum=%v spamhub=%v", p.Trust("museum"), p.Trust("spamhub"))
	}
	if p.Trust("unknown") != 0.5 {
		t.Fatalf("unknown trust = %v", p.Trust("unknown"))
	}
}

func TestPersonalScore(t *testing.T) {
	p := New("iris", 8)
	p.Interests = concept(8, 3)
	match, other := concept(8, 3), concept(8, 6)
	base := 0.5
	if p.PersonalScore(base, match, 0.5) <= p.PersonalScore(base, other, 0.5) {
		t.Fatal("interest match should boost")
	}
	if p.PersonalScore(base, match, 0) != base {
		t.Fatal("gamma=0 should be the base score")
	}
	if s := p.PersonalScore(base, match, 2); s < 0 || s > 1 {
		t.Fatalf("clamped gamma score = %v", s)
	}
}

// boost is p's TermBoost of a document given as (term, count) pairs.
func boost(p *Profile, pairs ...any) float64 {
	b := p.TermBoost()
	for i := 0; i < len(pairs); i += 2 {
		b.Add(pairs[i].(string), pairs[i+1].(int))
	}
	return b.Value()
}

func TestTermBoost(t *testing.T) {
	p := New("iris", 4)
	p.TermAffinity["gold"] = 2
	p.TermAffinity["spam"] = -2
	up := boost(p, "gold", 1)
	down := boost(p, "spam", 1)
	if up <= 1 || down >= 1 {
		t.Fatalf("boosts: up=%v down=%v", up, down)
	}
	if up > 1.5 || down < 0.5 {
		t.Fatalf("boost out of range: up=%v down=%v", up, down)
	}
	if boost(p, "unseen", 3) != 1 || boost(p) != 1 {
		t.Fatal("neutral boost expected")
	}
	// The mean is over tokens: three golds outweigh one spam, (3·2 - 2)/4.
	if got, want := boost(p, "gold", 3, "ring", 5, "spam", 1), 1+0.5*math.Tanh(1); got != want {
		t.Fatalf("boost of gold×3 ring×5 spam×1 = %v, want %v", got, want)
	}
}

// TestTermBoostMatchesReference: over a generated corpus, a learned
// profile's TermBoost of each document, fed from the index its search hit
// was found in (docstore.Hit.Terms), is to the bit a reference computed from the
// document's tokens — sorted, counted, and summed in ascending term order —
// and within 1e-12 of the mean taken in token order; and it allocates
// nothing.
func TestTermBoostMatchesReference(t *testing.T) {
	gen := workload.NewGenerator(5, 16, 8)
	corpus := gen.GenCorpus(400, 1.0, 1e9)
	p := New("iris", 16)
	l := NewLearner()
	types := []EventType{EventSkip, EventClick, EventDwell, EventSave, EventQuery}
	for i, wd := range corpus[:80] {
		l.Observe(p, Event{Type: types[i%len(types)], Concept: wd.Doc.Concept, Terms: wd.Doc.Tokens()})
	}
	var pos, neg int
	for _, a := range p.TermAffinity {
		if a > 0 {
			pos++
		} else if a < 0 {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("the learned profile holds %d attractions and %d aversions: want both", pos, neg)
	}

	s, err := docstore.Open(docstore.Options{ConceptDim: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*docstore.Document, len(corpus))
	for i, wd := range corpus {
		docs[i] = wd.Doc
	}
	if err := s.PutBatch(docs); err != nil {
		t.Fatal(err)
	}

	reference := func(d *docstore.Document) float64 {
		toks := d.Tokens()
		sort.Strings(toks)
		var sum float64
		var n int
		for i := 0; i < len(toks); {
			j := i + 1
			for j < len(toks) && toks[j] == toks[i] {
				j++
			}
			if a, ok := p.TermAffinity[toks[i]]; ok {
				sum += float64(j-i) * a
				n += j - i
			}
			i = j
		}
		if n == 0 {
			return 1
		}
		return 1 + 0.5*math.Tanh(sum/float64(n))
	}
	tokenOrder := func(d *docstore.Document) float64 {
		var sum float64
		var n int
		for _, tok := range d.Tokens() {
			if a, ok := p.TermAffinity[tok]; ok {
				sum += a
				n++
			}
		}
		if n == 0 {
			return 1
		}
		return 1 + 0.5*math.Tanh(sum/float64(n))
	}

	seen, moved := map[string]bool{}, 0
	for _, topic := range gen.Topics {
		for _, h := range s.SearchText(topic.Name, len(corpus)) {
			if seen[h.Doc.ID] {
				continue
			}
			seen[h.Doc.ID] = true
			b := p.TermBoost()
			h.Terms(b.Add)
			got := b.Value()
			if want := reference(h.Doc); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: TermBoost %v, reference %v", h.Doc.ID, got, want)
			}
			if want := tokenOrder(h.Doc); math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("%s: TermBoost %v, token-order mean %v", h.Doc.ID, got, want)
			}
			if got != 1 {
				moved++
			}
		}
	}
	if len(seen) < len(corpus)*9/10 || moved < len(seen)/2 {
		t.Fatalf("%d of %d documents boosted, %d of them away from 1", len(seen), len(corpus), moved)
	}

	h := s.SearchText(gen.Topics[0].Name, 1)[0]
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		b := p.TermBoost()
		h.Terms(b.Add)
		sink += b.Value()
	}); n != 0 {
		t.Fatalf("boosting a document the store holds makes %v allocations, want 0", n)
	}
}

func TestTopTerms(t *testing.T) {
	p := New("iris", 4)
	p.TermAffinity["a"] = 0.5
	p.TermAffinity["b"] = 0.9
	p.TermAffinity["c"] = -0.3
	got := p.TopTerms(2)
	if !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("top terms = %v", got)
	}
	if got := p.TopTerms(10); len(got) != 3 {
		t.Fatalf("overflow k = %v", got)
	}
}

func TestActiveView(t *testing.T) {
	p := New("iris", 8)
	p.Interests = concept(8, 1)
	p.Weights = qos.Weights{Completeness: 5, Latency: 1, Freshness: 1, Trust: 1, Price: 1}
	w := qos.Weights{Latency: 5, Completeness: 1, Freshness: 1, Trust: 1, Price: 1}
	p.Variants["on-the-road"] = &Variant{
		Label:     "on-the-road",
		Interests: concept(8, 4),
		Weights:   &w,
	}
	iv, wv := p.ActiveView("on-the-road")
	if feature.Cosine(iv, concept(8, 4)) < 0.99 || wv.Latency != 5 {
		t.Fatal("variant not applied")
	}
	iv, wv = p.ActiveView("unknown")
	if feature.Cosine(iv, concept(8, 1)) < 0.99 || wv.Completeness != 5 {
		t.Fatal("base view wrong")
	}
	// Partial variant: only weights.
	p.Variants["partial"] = &Variant{Weights: &w}
	iv, _ = p.ActiveView("partial")
	if feature.Cosine(iv, concept(8, 1)) < 0.99 {
		t.Fatal("partial variant should inherit base interests")
	}
}

func TestSimilarity(t *testing.T) {
	a, b, c := New("a", 8), New("b", 8), New("c", 8)
	a.Interests = concept(8, 2)
	b.Interests = concept(8, 2)
	c.Interests = concept(8, 7)
	a.TermAffinity["gold"] = 1
	b.TermAffinity["gold"] = 0.8
	c.TermAffinity["gold"] = -1
	if Similarity(a, b) <= Similarity(a, c) {
		t.Fatal("aligned profiles should be more similar")
	}
	if s := Similarity(a, b); s < 0 || s > 1 {
		t.Fatalf("similarity out of range: %v", s)
	}
}

func TestCloneIsolation(t *testing.T) {
	p := New("iris", 4)
	p.TermAffinity["x"] = 1
	p.Variants["v"] = &Variant{Label: "v", Interests: concept(4, 0)}
	p.SourceTrust["s"] = uncertainty.NewBelief()
	cp := p.Clone()
	cp.TermAffinity["x"] = -5
	cp.Interests[0] = 9
	cp.Variants["v"].Interests[0] = 9
	if p.TermAffinity["x"] != 1 || p.Interests[0] != 0 || p.Variants["v"].Interests[0] != 1 {
		t.Fatal("clone not deep")
	}
}

// TestCloneKeepsNilVariant: ActiveView reads a nil variant as absent, and
// Clone — which every session runs on the profile it opens — keeps it nil
// rather than dereferencing it.
func TestCloneKeepsNilVariant(t *testing.T) {
	p := New("iris", 4)
	p.Interests = concept(4, 1)
	p.Variants["gone"] = nil
	cp := p.Clone()
	if v, ok := cp.Variants["gone"]; !ok || v != nil {
		t.Fatalf("clone's variant %v (present %v), want a nil entry", v, ok)
	}
	if iv, _ := cp.ActiveView("gone"); feature.Cosine(iv, concept(4, 1)) < 0.99 {
		t.Fatal("a nil variant should yield the base view")
	}
}

func TestMergeEvidenceWeighting(t *testing.T) {
	a, b := New("iris", 4), New("iris", 4)
	a.Interests = feature.Vector{1, 0, 0, 0}
	a.Evidence = 90
	b.Interests = feature.Vector{0, 1, 0, 0}
	b.Evidence = 10
	res, err := Merge([]*Profile{a, b}, []string{"s1", "s2"}, ConflictEvidence)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Profile
	if !isVectorClose(m.Interests, feature.Vector{0.9, 0.1, 0, 0}, 1e-9) {
		t.Fatalf("merged interests = %v", m.Interests)
	}
	if m.Evidence != 100 {
		t.Fatalf("evidence = %v", m.Evidence)
	}
}

func TestMergeConflictPolicies(t *testing.T) {
	mk := func(aff float64, ev float64) *Profile {
		p := New("iris", 2)
		p.TermAffinity["poetry"] = aff
		p.Evidence = ev
		return p
	}
	parts := []*Profile{mk(1, 10), mk(-1, 10), mk(0.8, 10)}
	labels := []string{"s1", "s2", "s3"}

	res, err := Merge(parts, labels, ConflictEvidence)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts) != 1 || res.Conflicts[0].Term != "poetry" {
		t.Fatalf("conflicts = %+v", res.Conflicts)
	}
	if math.Abs(res.Profile.TermAffinity["poetry"]-(1-1+0.8)/3) > 1e-9 {
		t.Fatalf("evidence merge = %v", res.Profile.TermAffinity["poetry"])
	}

	res, _ = Merge(parts, labels, ConflictDrop)
	if _, ok := res.Profile.TermAffinity["poetry"]; ok {
		t.Fatal("drop policy kept conflicted term")
	}

	res, _ = Merge(parts, labels, ConflictMajority)
	if got := res.Profile.TermAffinity["poetry"]; math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("majority merge = %v (want mean of winning side 0.9)", got)
	}
}

func TestMergePoolsSourceTrust(t *testing.T) {
	a, b := New("iris", 2), New("iris", 2)
	a.SourceTrust["m"] = uncertainty.BetaBelief{Alpha: 10, Beta: 2}
	b.SourceTrust["m"] = uncertainty.BetaBelief{Alpha: 5, Beta: 2}
	res, err := Merge([]*Profile{a, b}, nil, ConflictEvidence)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Profile.SourceTrust["m"]
	if got.Alpha != 14 || got.Beta != 3 { // 1 + 9 + 4, 1 + 1 + 1
		t.Fatalf("pooled belief = %+v", got)
	}
}

func TestMergeEmpty(t *testing.T) {
	if _, err := Merge(nil, nil, ConflictEvidence); err == nil {
		t.Fatal("expected error")
	}
}

func TestAffinityF1(t *testing.T) {
	p := New("iris", 2)
	p.TermAffinity["gold"] = 1    // correct like
	p.TermAffinity["spam"] = -1   // correct dislike
	p.TermAffinity["noise"] = 0.5 // false positive
	likes := map[string]bool{"gold": true, "ring": true}
	dislikes := map[string]bool{"spam": true}
	f1 := AffinityF1(p, likes, dislikes)
	// tp=2, fp=1, fn=1 -> P=2/3, R=2/3, F1=2/3.
	if math.Abs(f1-2.0/3) > 1e-9 {
		t.Fatalf("f1 = %v", f1)
	}
	if AffinityF1(New("x", 2), likes, dislikes) != 0 {
		t.Fatal("empty profile f1 should be 0")
	}
}

func TestStorePutGetSimilar(t *testing.T) {
	s := NewStore()
	for i, hot := range []int{1, 1, 5} {
		p := New([]string{"iris", "jason", "zoe"}[i], 8)
		p.Interests = concept(8, hot)
		s.Put(p)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := s.Get("nobody"); got != nil {
		t.Fatal("missing user should be nil")
	}
	iris := s.Get("iris")
	sims := s.MostSimilar(iris, 2)
	if len(sims) != 2 || sims[0].UserID != "jason" {
		t.Fatalf("similar = %+v", sims)
	}
	// Mutating the returned profile must not affect the store.
	iris.Interests[1] = -9
	if s.Get("iris").Interests[1] == -9 {
		t.Fatal("store leaked internal state")
	}
	users := s.Users()
	if !reflect.DeepEqual(users, []string{"iris", "jason", "zoe"}) {
		t.Fatalf("users = %v", users)
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	p := New("iris", 4)
	p.Interests = feature.Vector{0.1, 0.2, 0.3, 0.4}
	p.TermAffinity["gold"] = 0.9
	p.TermAffinity["spam"] = -0.4
	p.SourceTrust["museum"] = uncertainty.BetaBelief{Alpha: 9, Beta: 2}
	p.Weights = qos.Weights{Latency: 2, Completeness: 3, Freshness: 1, Trust: 1, Price: 0.5}
	p.Risk = uncertainty.Averse(0.7)
	p.Style = NegotiationStyle{Tactic: "boulware", Aggressiveness: 0.8}
	p.Modality = ModalityPrefs{Query: 3, Browse: 1, Feed: 2}
	p.Evidence = 42
	w := qos.Weights{Latency: 9, Completeness: 1, Freshness: 1, Trust: 1, Price: 1}
	p.Variants["travel"] = &Variant{Label: "travel", Interests: feature.Vector{1, 0, 0, 0}, Weights: &w}
	p.Variants["plain"] = &Variant{Label: "plain"}

	got, err := Unmarshal(Marshal(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.UserID != p.UserID || got.Evidence != p.Evidence {
		t.Fatalf("basic fields: %+v", got)
	}
	if !reflect.DeepEqual(got.TermAffinity, p.TermAffinity) {
		t.Fatalf("terms: %v", got.TermAffinity)
	}
	if !reflect.DeepEqual(got.SourceTrust, p.SourceTrust) {
		t.Fatalf("trust: %v", got.SourceTrust)
	}
	if got.Weights != p.Weights || got.Risk != p.Risk || got.Style != p.Style || got.Modality != p.Modality {
		t.Fatal("scalar sections mismatch")
	}
	if len(got.Variants) != 2 {
		t.Fatalf("variants: %v", got.Variants)
	}
	tv := got.Variants["travel"]
	if tv == nil || tv.Weights == nil || tv.Weights.Latency != 9 || !isVectorClose(tv.Interests, feature.Vector{1, 0, 0, 0}, 0) {
		t.Fatalf("travel variant: %+v", tv)
	}
	if pv := got.Variants["plain"]; pv == nil || pv.Weights != nil {
		t.Fatalf("plain variant: %+v", pv)
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	b := Marshal(New("iris", 4))
	if _, err := Unmarshal(b[:len(b)-2]); err == nil {
		t.Fatal("truncated profile decoded")
	}
}

// TestLearnerKeepsItsOwnTerms: event terms may alias a document's text (a
// Tokenize result does), and a map assignment stores the key it is given
// even over an equal one. No TermAffinity key may point into the event's
// text after the term is first learned, nor after it is learned again, which
// allocates nothing.
func TestLearnerKeepsItsOwnTerms(t *testing.T) {
	p, l := New("iris", 8), NewLearner()
	text := "byzantine gold filigree ring"
	ev := Event{Type: EventClick, Terms: feature.Tokenize(text)}
	base := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	check := func(when string) {
		for k := range p.TermAffinity {
			if uintptr(unsafe.Pointer(unsafe.StringData(k)))-base < uintptr(len(text)) {
				t.Fatalf("%s: key %q points into the event's text", when, k)
			}
		}
	}
	l.Observe(p, ev)
	check("first seen")
	if got := testing.AllocsPerRun(100, func() { l.Observe(p, ev) }); got != 0 {
		t.Fatalf("%v allocations to update known terms", got)
	}
	check("seen again")
	if len(p.TermAffinity) != 4 || p.TermAffinity["filigree"] <= 0 {
		t.Fatalf("affinities %v", p.TermAffinity)
	}
}

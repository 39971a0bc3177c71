package docstore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/feature"
)

// The oracle: every secondary-index read recomputed by a brute-force pass
// over the test's own map of live documents. It shares no code with the store
// beyond the scoring functions of internal/feature, so it is a reference the
// store's own equivalence tests (store against store) are not.

// byTimeAsc returns the live documents keep accepts, ascending (CreatedAt, ID).
func byTimeAsc(live map[string]*Document, keep func(*Document) bool) []string {
	var docs []*Document
	for _, d := range live {
		if keep(d) {
			docs = append(docs, d)
		}
	}
	sort.Slice(docs, func(i, j int) bool {
		if docs[i].CreatedAt != docs[j].CreatedAt {
			return docs[i].CreatedAt < docs[j].CreatedAt
		}
		return docs[i].ID < docs[j].ID
	})
	return docIDs(docs)
}

// newestFirst reverses ids and cuts the result to k (k <= 0: all of it).
func newestFirst(ids []string, k int) []string {
	out := slices.Clone(ids)
	slices.Reverse(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// bruteHits scores every live document score accepts and returns the best k
// under the store's (score descending, ID ascending) order.
func bruteHits(live map[string]*Document, k int, score func(*Document) (float64, bool)) []Hit {
	var hits []Hit
	for _, d := range live {
		if sc, ok := score(d); ok {
			hits = append(hits, Hit{Doc: d, Score: sc})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc.ID < hits[j].Doc.ID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// textOracle is the reference text scorer: maps and a sort, no postings, no
// ordinals, no heap. Every live document is tokenized on the spot, document
// frequencies are counted over the live set, and a document's score is the
// sum over the query's distinct terms, in first-appearance order, of
// qw·((1+ln tf)·idf), divided by √(len+1) — the arithmetic DESIGN.md states,
// written out once more so that the store's two walks are not each other's
// only witness.
type textOracle struct {
	total int
	tf    map[string]map[string]int // id -> term -> occurrences
	dlen  map[string]int            // id -> token count
	df    map[string]int            // term -> live carriers
}

func newTextOracle(live map[string]*Document) *textOracle {
	o := &textOracle{total: len(live), tf: map[string]map[string]int{}, dlen: map[string]int{}, df: map[string]int{}}
	for id, d := range live {
		toks := feature.Tokenize(strings.Join(append([]string{d.Title, d.Text}, d.Topics...), " "))
		tf := map[string]int{}
		for _, t := range toks {
			tf[t]++
		}
		for t := range tf {
			o.df[t]++
		}
		o.tf[id], o.dlen[id] = tf, len(toks)
	}
	return o
}

// terms returns the query's distinct terms in first-appearance order, with
// how often the query repeats each.
func (o *textOracle) terms(query string) (terms []string, qn map[string]int) {
	qn = map[string]int{}
	for _, t := range feature.Tokenize(query) {
		if qn[t] == 0 {
			terms = append(terms, t)
		}
		qn[t]++
	}
	return terms, qn
}

// global is the statistics a scatter router would ship for query had it
// summed them over this one corpus.
func (o *textOracle) global(query string) *GlobalStats {
	terms, _ := o.terms(query)
	gs := &GlobalStats{TotalDocs: uint64(o.total), Terms: terms}
	for _, t := range terms {
		gs.DF = append(gs.DF, uint64(o.df[t]))
	}
	return gs
}

func (o *textOracle) search(live map[string]*Document, query string, k int) []Hit {
	terms, qn := o.terms(query)
	if k < 0 {
		k = len(live)
	}
	return bruteHits(live, k, func(d *Document) (float64, bool) {
		acc, matched := 0.0, false
		for _, t := range terms {
			tf := o.tf[d.ID][t]
			if tf == 0 {
				continue
			}
			idf := math.Log(1 + float64(o.total)/float64(1+o.df[t]))
			qw := (1 + math.Log(float64(qn[t]))) * idf
			dw := (1 + math.Log(float64(tf))) * idf
			acc += qw * dw
			matched = true
		}
		return acc / math.Sqrt(float64(o.dlen[d.ID])+1), matched
	})
}

// oracleQueries: one term, several, a repeated term (query weight above 1), a
// term nothing carries, a topic (topics are indexed as text), nothing at all.
var oracleQueries = []string{
	"gold", "byzantine gold ring", "ring ring amber ring", "nobody coin",
	"alpha", "jade mosaic pendant silver brooch", "nobody", "",
}

// requireTextMatches holds SearchText, SearchTextExhaustive and
// SearchTextGlobal (under the oracle's own totals) to the oracle, id for id
// and score bit for score bit, for every query at every k.
func requireTextMatches(t *testing.T, stage string, s *Store, live map[string]*Document, queries []string, ks []int) {
	t.Helper()
	o := newTextOracle(live)
	for _, q := range queries {
		for _, k := range ks {
			want := o.search(live, q, k)
			for name, got := range map[string][]Hit{
				"SearchText":           s.SearchText(q, k),
				"SearchTextExhaustive": s.SearchTextExhaustive(q, k),
				"SearchTextGlobal":     s.SearchTextGlobal(q, k, o.global(q)),
			} {
				if !hitsEqual(got, want) {
					t.Fatalf("%s: %s(%q, %d)\n got    %v\n oracle %v", stage, name, q, k, hitIDs(got), hitIDs(want))
				}
			}
		}
	}
}

var (
	oracleVec = feature.Vector{1, -0.5, 0.25, 0, 0.75, -1, 0.5, 0}
	oracleVis = feature.VisualFeatures{ColorHist: []float64{0.3, 0.4, 0.3}, Texture: []float64{0.6, 0.4}}
)

// requireReadsMatch checks Len, TopicCount, Newest, Freshest, RecentSince,
// SearchVector, SearchVisual and the three text searches against the oracle.
// SearchVector asks for more hits than there are documents, so the answer is
// every live vector, ranked.
func requireReadsMatch(t *testing.T, stage string, s *Store, live map[string]*Document) {
	t.Helper()
	if s.Len() != len(live) {
		t.Fatalf("%s: Len %d, oracle %d", stage, s.Len(), len(live))
	}
	all := byTimeAsc(live, func(*Document) bool { return true })
	for _, k := range []int{1, 5, len(live) + 3} {
		if got, want := docIDs(s.Freshest(k)), newestFirst(all, k); !strsEqual(got, want) {
			t.Fatalf("%s: Freshest(%d) %v, oracle %v", stage, k, got, want)
		}
	}
	for _, k := range []int{0, 5} {
		if got, want := scanIDs(s.Newest("", k)), newestFirst(all, k); !strsEqual(got, want) {
			t.Fatalf("%s: Newest(\"\", %d) %v, oracle %v", stage, k, got, want)
		}
	}
	for _, span := range [][2]int64{{-1 << 62, 1 << 62}, {7, 19}, {12, 12}, {30, 5}} {
		want := byTimeAsc(live, func(d *Document) bool { return d.CreatedAt >= span[0] && d.CreatedAt <= span[1] })
		if got := docIDs(s.RecentSince(span[0], span[1])); !strsEqual(got, want) {
			t.Fatalf("%s: RecentSince%v %v, oracle %v", stage, span, got, want)
		}
	}
	for _, topic := range []string{"alpha", "beta", "gamma", "nobody"} {
		carriers := byTimeAsc(live, func(d *Document) bool { return slices.Contains(d.Topics, topic) })
		if got := s.TopicCount(topic); got != len(carriers) {
			t.Fatalf("%s: TopicCount(%q) %d, oracle %d", stage, topic, got, len(carriers))
		}
		for _, k := range []int{0, 4} {
			if got, want := scanIDs(s.Newest(topic, k)), newestFirst(carriers, k); !strsEqual(got, want) {
				t.Fatalf("%s: Newest(%q, %d) %v, oracle %v", stage, topic, k, got, want)
			}
		}
	}
	wantVec := bruteHits(live, len(live)+1, func(d *Document) (float64, bool) {
		return feature.Cosine(oracleVec, d.Concept), len(d.Concept) > 0
	})
	if got := s.SearchVector(oracleVec, len(live)+1); !hitsEqual(got, wantVec) {
		t.Fatalf("%s: SearchVector %v, oracle %v", stage, hitIDs(got), hitIDs(wantVec))
	}
	wantVis := bruteHits(live, 6, func(d *Document) (float64, bool) {
		vf := feature.VisualFeatures{ColorHist: d.ColorHist, Texture: d.Texture}
		return feature.VisualSimilarity(oracleVis, vf, 0.5), hasVisual(d)
	})
	if got := s.SearchVisual(oracleVis, 0.5, 6); !hitsEqual(got, wantVis) {
		t.Fatalf("%s: SearchVisual %v, oracle %v", stage, hitIDs(got), hitIDs(wantVis))
	}
	requireTextMatches(t, stage, s, live, oracleQueries, []int{1, 5, len(live) + 3, -1})
}

// TestReadsMatchBruteForce drives a put / replace / delete history across
// several merges — single writes each compiled into a segment, PutBatch
// windows, windows mixing puts and deletes, then a scripted walk through the
// shapes of a segment list — and after every
// write holds every text, vector, visual, topic and time read to the oracle. Timestamps come from a range of 30, so equal CreatedAt ties
// (broken by ID) are everywhere; some documents list a topic twice and must count
// once. The scripted tail pins the cases a random history may miss.
func TestReadsMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	s, err := Open(Options{ConceptDim: 8, Seed: 3, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]*Document{}
	newDoc := func() *Document {
		d := shadowDoc(r, fmt.Sprintf("o%03d", r.Intn(160)), int64(r.Intn(30)))
		switch r.Intn(6) {
		case 0:
			d.Topics = []string{"alpha", "alpha"}
		case 1:
			d.Topics = []string{"gamma", "beta", "gamma"}
		}
		return d
	}
	randomID := func() string { return fmt.Sprintf("o%03d", r.Intn(160)) }
	put := func(stage string, d *Document) {
		t.Helper()
		if err := s.Put(d); err != nil {
			t.Fatal(err)
		}
		live[d.ID] = d
		requireReadsMatch(t, stage, s, live)
	}
	del := func(stage, id string) {
		t.Helper()
		if err := s.Delete(id); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
		delete(live, id)
		requireReadsMatch(t, stage, s, live)
	}
	batch := func(stage string, n int) {
		t.Helper()
		docs := make([]*Document, n)
		for i := range docs {
			docs[i] = newDoc()
			live[docs[i].ID] = docs[i]
		}
		if err := s.PutBatch(docs); err != nil {
			t.Fatal(err)
		}
		requireReadsMatch(t, stage, s, live)
	}

	merges := 0
	for round := 0; round < 12; round++ {
		before := s.snap.Load()
		stage := fmt.Sprintf("round %d", round)
		switch round % 3 {
		case 0:
			for i := 0; i < 45; i++ {
				if r.Intn(3) == 0 {
					del(fmt.Sprintf("%s write %d", stage, i), randomID())
				} else {
					put(fmt.Sprintf("%s write %d", stage, i), newDoc())
				}
			}
		case 1:
			batch(stage, 70+r.Intn(30))
		case 2:
			var ops []stagedOp
			for i := 0; i < 5+r.Intn(90); i++ {
				if r.Intn(3) == 0 {
					id := randomID()
					ops = append(ops, stagedOp{op: opDelete, id: id})
					delete(live, id)
				} else {
					d := newDoc()
					ops = append(ops, stagePut(d))
					live[d.ID] = d
				}
			}
			if err := commitOps(s, ops...); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
			requireReadsMatch(t, stage, s, live)
		}
		if mergedSince(before, s.snap.Load()) {
			merges++
		}
	}
	if merges < 3 {
		t.Fatalf("only %d rounds with a merge: the history is not crossing merge boundaries", merges)
	}

	// A base document with a vector, a picture and a topic listed twice...
	fix := doc("fix", "gold ring", "byzantine gold ring", 12, feature.Vector{1, -0.4, 0.3, 0, 0.7, -1, 0.5, 0.1})
	fix.Topics = []string{"alpha", "alpha"}
	fix.ColorHist, fix.Texture = []float64{0.3, 0.4, 0.3}, []float64{0.6, 0.4}
	put("fix", fix)
	batch("merge fix into a larger segment", 90)
	sn := s.snap.Load()
	si, _ := holder(sn.segs, "fix")
	if sn.getDoc("fix") == nil || sn.segs[si].live() < 90 {
		t.Fatal("the batch did not merge fix into a segment of its size")
	}
	// ...is replaced by one with other topics, no vector and no picture,
	// deleted, and put back as it was, all while that segment holds it dead.
	bare := doc("fix", "silver coin", "etruscan silver coin", 12, nil)
	bare.Topics = []string{"beta"}
	put("replace fix", bare)
	del("delete fix", "fix")
	del("delete fix again", "fix")
	put("put fix back", fix)
	if mergedSince(sn, s.snap.Load()) {
		t.Fatal("the scripted writes merged the segment that held fix; they must see it dead")
	}
	// A merge of that segment drops the dead copy: carried, counted once.
	forceMerge(s)
	requireReadsMatch(t, "merge the put-back", s, live)

	// The same reads through a scripted segment list: tombstones in every
	// tier, a dead-share merge, a tier merge (tierSchedule), on a store of its
	// own so that the shapes are the schedule's.
	if s, err = Open(Options{ConceptDim: 8, Seed: 3, QueryCacheSize: -1}); err != nil {
		t.Fatal(err)
	}
	clear(live)
	tierSchedule(t, s, r, tierOps{
		put: put,
		del: del,
		batch: func(stage string, docs []*Document) {
			t.Helper()
			for _, d := range docs {
				live[d.ID] = d
			}
			if err := s.PutBatch(docs); err != nil {
				t.Fatal(err)
			}
			requireReadsMatch(t, stage, s, live)
		},
		shaped: func(stage string, _ *snapshot) { requireReadsMatch(t, stage, s, live) },
	})
}

package feature

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("The Folk-Jewelry of Europe, and its 12 styles!")
	want := []string{"folk", "jewelry", "europe", "12", "styles"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokenize = %v, want %v", got, want)
	}
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("empty text tokens = %v", got)
	}
	if got := Tokenize("a I . ,"); len(got) != 0 {
		t.Fatalf("stopword/short tokens leaked: %v", got)
	}
}

func TestVocabularyObserveAndIDF(t *testing.T) {
	v := NewVocabulary()
	v.Observe([]string{"gold", "ring"})
	v.Observe([]string{"gold", "necklace"})
	v.Observe([]string{"silver", "ring"})
	if v.Docs() != 3 {
		t.Fatalf("docs = %d", v.Docs())
	}
	if v.Size() != 4 {
		t.Fatalf("size = %d", v.Size())
	}
	// "gold" appears in 2 docs, "necklace" in 1: rarer term has higher IDF.
	if v.IDF(v.Dim("necklace")) <= v.IDF(v.Dim("gold")) {
		t.Fatal("rarer term should have higher IDF")
	}
	if v.Dim("platinum") != -1 {
		t.Fatal("unknown term should map to -1")
	}
	if v.IDF(-1) != 0 || v.IDF(99) != 0 {
		t.Fatal("out-of-range IDF should be 0")
	}
	if v.Term(v.Dim("gold")) != "gold" {
		t.Fatal("term/dim roundtrip failed")
	}
}

func TestVocabularyDFCountsOncePerDoc(t *testing.T) {
	v := NewVocabulary()
	v.Observe([]string{"gold", "gold", "gold"})
	v.Observe([]string{"silver"})
	// df(gold)=1 despite three occurrences; idf(gold)==idf(silver).
	if math.Abs(v.IDF(v.Dim("gold"))-v.IDF(v.Dim("silver"))) > 1e-12 {
		t.Fatal("df must count documents, not occurrences")
	}
}

func TestVectorizeAndCosineSparse(t *testing.T) {
	v := NewVocabulary()
	docs := [][]string{
		Tokenize("gold ring byzantine filigree"),
		Tokenize("gold necklace modern minimal"),
		Tokenize("silver ring celtic knot"),
	}
	for _, d := range docs {
		v.Observe(d)
	}
	q := v.Vectorize(Tokenize("byzantine gold ring"))
	s0 := CosineSparse(q, v.Vectorize(docs[0]))
	s1 := CosineSparse(q, v.Vectorize(docs[1]))
	s2 := CosineSparse(q, v.Vectorize(docs[2]))
	if !(s0 > s1 && s0 > s2) {
		t.Fatalf("best doc not ranked first: %v %v %v", s0, s1, s2)
	}
	if self := CosineSparse(q, q); !almostEq(self, 1, 1e-9) {
		t.Fatalf("self cosine = %v", self)
	}
	// Unknown terms vanish.
	empty := v.Vectorize([]string{"zzzz"})
	if len(empty.Dims) != 0 {
		t.Fatal("unknown-only query should vectorize empty")
	}
	if CosineSparse(q, empty) != 0 {
		t.Fatal("cosine with empty should be 0")
	}
}

func TestSparseDimsSorted(t *testing.T) {
	v := NewVocabulary()
	v.Observe(Tokenize("zebra yak xenon walrus vulture"))
	sv := v.Vectorize(Tokenize("walrus zebra xenon"))
	if !sort.IntsAreSorted(sv.Dims) {
		t.Fatalf("dims not sorted: %v", sv.Dims)
	}
}

func TestProjectPreservesSimilarityOrdering(t *testing.T) {
	v := NewVocabulary()
	corpus := [][]string{
		Tokenize("gold ring byzantine filigree ancient greek jewel"),
		Tokenize("gold necklace byzantine pendant greek"),
		Tokenize("database transaction log recovery checkpoint index"),
	}
	for _, d := range corpus {
		v.Observe(d)
	}
	a := v.Vectorize(corpus[0]).Project(64)
	b := v.Vectorize(corpus[1]).Project(64)
	c := v.Vectorize(corpus[2]).Project(64)
	if Cosine(a, b) <= Cosine(a, c) {
		t.Fatal("projection destroyed topical similarity ordering")
	}
}

func TestProjectDeterministic(t *testing.T) {
	f := func(dims []uint16, ws []uint8) bool {
		n := len(dims)
		if len(ws) < n {
			n = len(ws)
		}
		sv := SparseVector{}
		for i := 0; i < n; i++ {
			sv.Dims = append(sv.Dims, int(dims[i]))
			sv.Weights = append(sv.Weights, float64(ws[i]))
		}
		p1 := sv.Project(32)
		p2 := sv.Project(32)
		return reflect.DeepEqual(p1, p2) && len(p1) == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// streamTokens reads texts through one Tokenizer, as a reader of a document's
// parts does, copying each token out before the next call overwrites it.
func streamTokens(texts ...string) []string {
	var out []string
	var tz Tokenizer
	for _, text := range texts {
		tz.Reset(text)
		for tok, ok := tz.Next(); ok; tok, ok = tz.Next() {
			out = append(out, string(tok))
		}
	}
	return out
}

// TestTokenizerMatchesTokenize: the streaming Tokenizer — its own scanner,
// with an ASCII fast path and a fixed buffer — read over a document's parts
// yields exactly what Tokenize returns for the parts joined by spaces.
func TestTokenizerMatchesTokenize(t *testing.T) {
	long := strings.Repeat("Straße", 30) // 210 bytes: past the tokenizer's own buffer
	table := [][]string{
		{"The Folk-Jewelry of Europe, and its 12 styles!"},
		{"Gold Ring", "byzantine filigree", "jewelry", "7th-century"},
		{"", "", ""},
		{"a I . ,", "x", "ab"}, // 1-byte runs and stopwords only, then the shortest token
		{"THE and Or NOT", "Would you", "may9 can't"}, // stopwords in every case, one inside a longer run
		{"ÉCOLE Ångström İstanbul ǅungla ẞ", "Ⱥ Ⱦ"},   // folding that changes byte length, both ways
		{"زيتون ٣٤ 数字 ４２ x²", "naïve café"},           // letters and digits outside Latin; a superscript is neither
		{long, "tail " + long + "!" + long},
		{"bad \xff\xfe utf8 \xe2\x82", "ok\xc3"}, // invalid bytes delimit
		{"tab\tnew\nline nbsp em—dash"},
	}
	for _, texts := range table {
		want := Tokenize(strings.Join(texts, " "))
		if got := streamTokens(texts...); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenizer over %q = %q, Tokenize of them joined %q", texts, got, want)
		}
	}
	// Random strings over an alphabet dense in the cases above.
	alphabet := []rune("aAbZzİıẞßǅÉé09٣² \t-.,' \xff")
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		texts := make([]string, 1+r.Intn(4))
		for i := range texts {
			b := make([]rune, r.Intn(90))
			for j := range b {
				b[j] = alphabet[r.Intn(len(alphabet))]
			}
			texts[i] = string(b)
			if r.Intn(8) == 0 {
				texts[i] += "\xf0\x9f" // a truncated sequence at the end of a part
			}
		}
		want := Tokenize(strings.Join(texts, " "))
		if got := streamTokens(texts...); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Tokenizer over %q = %q, Tokenize of them joined %q", trial, texts, got, want)
		}
	}
}

// TestTokenizerDoesNotAllocate pins what the personalize step relies on:
// looking a document's tokens up costs no allocation.
func TestTokenizerDoesNotAllocate(t *testing.T) {
	affinity := map[string]float64{"gold": 1, "ring": 0.5}
	texts := []string{"Gold Ring of the Byzantine court", "filigree and gold, 12 carats", "jewelry"}
	var sum float64
	got := testing.AllocsPerRun(100, func() {
		var tz Tokenizer
		for _, text := range texts {
			tz.Reset(text)
			for tok, ok := tz.Next(); ok; tok, ok = tz.Next() {
				sum += affinity[string(tok)]
			}
		}
	})
	if got != 0 || sum == 0 {
		t.Fatalf("%v allocations per pass (sum %v)", got, sum)
	}
}

package feature

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unsafe"
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

// referenceTokenize is the rune-at-a-time scanner Tokenize was before it was
// built on Tokenizer, kept as the definition both are held to.
func referenceTokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		w := b.String()
		b.Reset()
		if len(w) < 2 || stopwords[w] {
			return
		}
		out = append(out, w)
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return out
}

// TestTokenizerMatchesTokenize: the Tokenizer — an ASCII fast path, a fixed
// buffer — read over a document's parts, which is what Tokenize of the parts
// does, and Tokenize of the parts joined by spaces both yield exactly what the
// reference scanner returns for the joined text.
func TestTokenizerMatchesTokenize(t *testing.T) {
	check := func(texts []string) bool {
		want := referenceTokenize(strings.Join(texts, " "))
		if got := Tokenize(texts...); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenizer over %q = %q, the reference over them joined %q", texts, got, want)
			return false
		}
		if got := Tokenize(strings.Join(texts, " ")); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize of %q joined = %q, the reference %q", texts, got, want)
			return false
		}
		return true
	}
	for _, texts := range tokenizeTable {
		check(texts)
	}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		if !check(randomTexts(r)) {
			t.Fatalf("trial %d", trial)
		}
	}
}

// long is 210 bytes: past the tokenizer's own buffer.
var long = strings.Repeat("Straße", 30)

// tokenizeTable is the tokenizer tests' table of documents, each a list of
// parts.
var tokenizeTable = [][]string{
	{"The Folk-Jewelry of Europe, and its 12 styles!"},
	{"Gold Ring", "byzantine filigree", "jewelry", "7th-century"},
	{"", "", ""},
	{"a I . ,", "x", "ab"}, // 1-byte runs and stopwords only, then the shortest token
	{"THE and Or NOT", "Would you", "may9 can't"}, // stopwords in every case, one inside a longer run
	{"ÉCOLE Ångström İstanbul ǅungla ẞ", "Ⱥ Ⱦ"},   // folding that changes byte length, both ways
	{"زيتون ٣٤ 数字 ４２ x²", "naïve café"},           // letters and digits outside Latin; a superscript is neither
	{long, "tail " + long + "!" + long},
	{"bad \xff\xfe utf8 \xe2\x82", "ok\xc3"}, // invalid bytes delimit
	{"tab\tnew\nline nbsp em—dash"},
}

// randomTexts draws one to four parts over an alphabet dense in the table's
// cases.
func randomTexts(r *rand.Rand) []string {
	alphabet := []rune("aAbZzİıẞßǅÉé09٣² \t-.,' \xff")
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
	return texts
}

// TestTokenizeAliasesItsText: every token Tokenize returns is the reference's
// token, the span the Tokenizer reports for it tokenizes, alone, to that
// token, and a token whose source bytes already equal it is that substring
// of its part — the zero-copy path runs — while any other is a copy.
func TestTokenizeAliasesItsText(t *testing.T) {
	aliased, copied := 0, 0
	check := func(texts []string) {
		got := Tokenize(texts...)
		if want := referenceTokenize(strings.Join(texts, " ")); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, the reference %q", texts, got, want)
		}
		var tz Tokenizer
		k := 0
		for _, text := range texts {
			tz.Reset(text)
			for tok, ok := tz.Next(); ok; tok, ok = tz.Next() {
				src := text[tz.start:tz.end]
				if one := referenceTokenize(src); len(one) != 1 || one[0] != string(tok) {
					t.Fatalf("%q: the span %d:%d of %q tokenizes to %q, not %q", texts, tz.start, tz.end, text, one, tok)
				}
				at := unsafe.StringData(got[k])
				if src == string(tok) {
					if at != unsafe.StringData(src) {
						t.Fatalf("%q: token %q does not alias its text", texts, got[k])
					}
					aliased++
				} else {
					if inside(at, text) {
						t.Fatalf("%q: folded token %q points into its text", texts, got[k])
					}
					copied++
				}
				k++
			}
		}
	}
	for _, texts := range tokenizeTable {
		check(texts)
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		check(randomTexts(r))
	}
	if aliased == 0 || copied == 0 {
		t.Fatalf("%d aliased and %d copied tokens: both paths must run", aliased, copied)
	}
}

// inside reports whether p points into s's bytes.
func inside(p *byte, s string) bool {
	if len(s) == 0 {
		return false
	}
	base := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return uintptr(unsafe.Pointer(p))-base < uintptr(len(s))
}

// TestTokenizeAllocatesOnce pins Tokenize on lowercase ASCII to the result
// slice alone: every token is a substring of the text.
func TestTokenizeAllocatesOnce(t *testing.T) {
	text := "gold ring of the byzantine court, filigree and 12 carats of jewelry"
	n := 0
	got := testing.AllocsPerRun(100, func() { n = len(Tokenize(text, "museum", "ancient greek")) })
	if got != 1 || n != 11 {
		t.Fatalf("%v allocations for %d tokens, want 1", got, n)
	}
}

// TestVocabularyKeepsNoText: a term the vocabulary learns is its own copy,
// not the observed document's bytes, which Tokenize's tokens alias.
func TestVocabularyKeepsNoText(t *testing.T) {
	v := NewVocabulary()
	doc := strings.Repeat("filigree ", 3) + "gold"
	v.Observe(Tokenize(doc))
	for i := 0; i < v.Size(); i++ {
		if inside(unsafe.StringData(v.Term(i)), doc) {
			t.Fatalf("term %q points into the observed text", v.Term(i))
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

package feature

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits text into lowercase word tokens, dropping punctuation and
// stopwords. It is the shared tokenizer for the inverted index and the text
// vectorizer so their views of a document agree.
func Tokenize(text string) []string {
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

// Tokenizer yields Tokenize's tokens one at a time, for a reader that looks
// each up and moves on: a token shorter than the buffer is never allocated.
// The zero value has nothing to yield.
type Tokenizer struct {
	rest string // text not yet read
	buf  [64]byte
}

// Reset starts over on text.
func (tz *Tokenizer) Reset(text string) { tz.rest = text }

// Next returns the next token: a maximal run of letters and digits,
// lowercased, at least two bytes long and not a stopword. The bytes are the
// tokenizer's own and are overwritten by the following call.
func (tz *Tokenizer) Next() ([]byte, bool) {
	s, tok := tz.rest, tz.buf[:0]
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			i++
			switch {
			case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
				tok = append(tok, c)
				continue
			case 'A' <= c && c <= 'Z':
				tok = append(tok, c+('a'-'A'))
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				tok = utf8.AppendRune(tok, unicode.ToLower(r))
				continue
			}
		}
		if isToken(tok) {
			tz.rest = s[i:]
			return tok, true
		}
		tok = tok[:0]
	}
	tz.rest = ""
	return tok, isToken(tok)
}

// isToken reports whether a run of letters and digits is kept: long enough,
// and not a stopword — which a run longer than every stopword is not, without
// a lookup.
func isToken(run []byte) bool {
	return len(run) >= 2 && (len(run) > maxStopword || !stopwords[string(run)])
}

var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "and": true, "or": true, "of": true,
	"to": true, "in": true, "on": true, "for": true, "with": true, "is": true,
	"are": true, "was": true, "were": true, "be": true, "as": true, "at": true,
	"by": true, "it": true, "its": true, "this": true, "that": true,
	"from": true, "but": true, "not": true, "has": true, "have": true,
	"had": true, "will": true, "would": true, "can": true, "may": true,
}

// maxStopword is the length of the longest stopword.
var maxStopword = func() (n int) {
	for w := range stopwords {
		n = max(n, len(w))
	}
	return n
}()

// Vocabulary maps terms to stable dimension indices and tracks document
// frequencies for IDF weighting. It is safe for concurrent use.
type Vocabulary struct {
	mu    sync.RWMutex
	dims  map[string]int
	terms []string
	df    []int // document frequency per dimension
	docs  int
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{dims: make(map[string]int)}
}

// Size returns the number of known terms.
func (v *Vocabulary) Size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.terms)
}

// Docs returns the number of documents observed.
func (v *Vocabulary) Docs() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.docs
}

// Term returns the term at dimension i, or "" if out of range.
func (v *Vocabulary) Term(i int) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if i < 0 || i >= len(v.terms) {
		return ""
	}
	return v.terms[i]
}

// Dim returns the dimension of term, or -1 if unknown.
func (v *Vocabulary) Dim(term string) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if d, ok := v.dims[term]; ok {
		return d
	}
	return -1
}

// Observe registers a document's tokens, growing the vocabulary and updating
// document frequencies.
func (v *Vocabulary) Observe(tokens []string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.docs++
	seen := make(map[int]bool, len(tokens))
	for _, t := range tokens {
		d, ok := v.dims[t]
		if !ok {
			d = len(v.terms)
			v.dims[t] = d
			v.terms = append(v.terms, t)
			v.df = append(v.df, 0)
		}
		if !seen[d] {
			seen[d] = true
			v.df[d]++
		}
	}
}

// IDF returns the smoothed inverse document frequency for dimension d.
func (v *Vocabulary) IDF(d int) float64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if d < 0 || d >= len(v.df) || v.docs == 0 {
		return 0
	}
	return math.Log(1 + float64(v.docs)/float64(1+v.df[d]))
}

// SparseVector is a term-weighted sparse representation: parallel sorted
// dims and weights. It is the natural output of text vectorization, where
// dense vectors over the whole vocabulary would waste space.
type SparseVector struct {
	Dims    []int
	Weights []float64
}

// Norm returns the Euclidean norm.
func (s SparseVector) Norm() float64 {
	var sum float64
	for _, w := range s.Weights {
		sum += w * w
	}
	return math.Sqrt(sum)
}

// CosineSparse returns the cosine similarity of two sparse vectors whose
// Dims are sorted ascending.
func CosineSparse(a, b SparseVector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	var dot float64
	i, j := 0, 0
	for i < len(a.Dims) && j < len(b.Dims) {
		switch {
		case a.Dims[i] == b.Dims[j]:
			dot += a.Weights[i] * b.Weights[j]
			i++
			j++
		case a.Dims[i] < b.Dims[j]:
			i++
		default:
			j++
		}
	}
	c := dot / (na * nb)
	if c > 1 {
		c = 1
	}
	return c
}

// Vectorize converts tokens to a TF-IDF sparse vector against v. Unknown
// terms are skipped (they carry no IDF evidence).
func (v *Vocabulary) Vectorize(tokens []string) SparseVector {
	tf := make(map[int]float64)
	for _, t := range tokens {
		if d := v.Dim(t); d >= 0 {
			tf[d]++
		}
	}
	dims := make([]int, 0, len(tf))
	for d := range tf {
		dims = append(dims, d)
	}
	sort.Ints(dims)
	weights := make([]float64, len(dims))
	for i, d := range dims {
		// Sublinear TF damping, standard for retrieval.
		weights[i] = (1 + math.Log(tf[d])) * v.IDF(d)
	}
	return SparseVector{Dims: dims, Weights: weights}
}

// Project folds a sparse vector into a fixed-dimension dense vector by
// hashing dimensions (the hashing trick). This gives every object — text or
// visual — a comparable dense form for the shared concept space.
func (s SparseVector) Project(dim int) Vector {
	out := make(Vector, dim)
	if dim == 0 {
		return out
	}
	for i, d := range s.Dims {
		h := hashDim(d)
		sign := 1.0
		if h&1 == 1 {
			sign = -1
		}
		out[int(h%uint64(dim))] += sign * s.Weights[i]
	}
	return out
}

func hashDim(d int) uint64 {
	x := uint64(d) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return x
}

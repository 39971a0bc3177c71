package docstore

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unsafe"
)

// termFreqs sorts tokens in place and returns the distinct terms, ascending,
// with their counts: what docTerms returns, by the plain path.
func termFreqs(tokens []string) []termTF {
	slices.Sort(tokens)
	var out []termTF
	for i, t := range tokens {
		if i == 0 || t != tokens[i-1] {
			out = append(out, termTF{term: t})
		}
		out[len(out)-1].tf++
	}
	return out
}

// referenceTokenize is the rune-at-a-time scanner feature.Tokenize was before
// it was built on feature.Tokenizer (feature's tests hold both to the same
// loop): a reference that shares no code with the scanner docTerms reads.
func referenceTokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		w := b.String()
		b.Reset()
		if len(w) < 2 || stopwordsRef[w] {
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

var stopwordsRef = map[string]bool{
	"a": true, "an": true, "the": true, "and": true, "or": true, "of": true,
	"to": true, "in": true, "on": true, "for": true, "with": true, "is": true,
	"are": true, "was": true, "were": true, "be": true, "as": true, "at": true,
	"by": true, "it": true, "its": true, "this": true, "that": true,
	"from": true, "but": true, "not": true, "has": true, "have": true,
	"had": true, "will": true, "would": true, "can": true, "may": true,
}

// docTermsCases are textsCases and the edges of docTerms' own: a run past the
// tokenizer's buffer, folding that changes byte length, invalid UTF-8, and
// tokens that agree in their first eight bytes, the sort key.
func docTermsCases() []*Document {
	long := strings.Repeat("Straße", 30)
	return append(slices.Clone(textsCases),
		&Document{Title: long, Text: "tail " + long + "!" + long, Topics: []string{long[:64], long[:65]}},
		&Document{Title: "ÉCOLE Ångström İstanbul ǅungla ẞ", Text: "Ⱥ Ⱦ école ecole istanbul ß ss", Topics: []string{"Ⱥ", "ⱥ"}},
		&Document{Title: "bad \xff\xfe utf8 \xe2\x82", Text: "ok\xc3", Topics: []string{"\xf0\x9f", "ok"}},
		&Document{Title: "abcdefgh abcdefghi", Text: "abcdefgh abcdefghij abcdefgz ab abcdefghi abcdefg abcdefgh", Topics: []string{"abcdefghi"}},
	)
}

// TestDocTermsMatchTokens: docTerms is termFreqs over Tokens, term for term,
// count for count, and its token count is theirs; and it costs two
// allocations whatever the document's length.
func TestDocTermsMatchTokens(t *testing.T) {
	check := func(d *Document) {
		t.Helper()
		toks := d.Tokens()
		want, wantLen := termFreqs(toks), len(toks)
		if got, n := docTerms(d); !slices.Equal(got, want) || n != wantLen {
			t.Fatalf("%+q: docTerms %v (%d tokens), Tokens counted %v (%d)", d.Texts(nil), got, n, want, wantLen)
		}
	}
	for _, d := range docTermsCases() {
		check(d)
	}
	alphabet := []rune("aAbZzİıẞßǅÉé09٣² \t-.,'\xff")
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		texts := make([]string, 2+r.Intn(4))
		for j := range texts {
			var b strings.Builder
			for w := r.Intn(30); w > 0; w-- {
				if r.Intn(2) == 0 {
					b.WriteString(shadowVocab[r.Intn(len(shadowVocab))])
				}
				for k := r.Intn(12); k > 0; k-- {
					b.WriteRune(alphabet[r.Intn(len(alphabet))])
				}
			}
			texts[j] = b.String()
		}
		check(&Document{Title: texts[0], Text: texts[1], Topics: texts[2:]})
	}

	if raceEnabled {
		return // sync.Pool drops entries at random under the race detector
	}
	var b strings.Builder
	for w := 0; w < 99; w++ {
		fmt.Fprintf(&b, "%s w%03d ", shadowVocab[r.Intn(len(shadowVocab))], r.Intn(300))
	}
	d := doc("a", "gold ring", b.String(), 1, nil)
	if _, n := docTerms(d); n != 200 {
		t.Fatalf("%d tokens, want 200", n)
	}
	if got := testing.AllocsPerRun(100, func() { docTerms(d) }); got != 2 {
		t.Fatalf("docTerms of a 200-token document makes %v allocations, want 2", got)
	}
}

// FuzzDocTerms holds docTerms to the reference path on arbitrary bytes: the
// input, split at zero bytes, is a document's texts, and docTerms must equal
// the reference scanner's tokens of the texts joined by spaces, sorted and
// counted.
func FuzzDocTerms(f *testing.F) {
	for _, d := range docTermsCases() {
		f.Add([]byte(strings.Join(d.Texts(nil), "\x00")))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		texts := append(strings.Split(string(raw), "\x00"), "")
		d := &Document{Title: texts[0], Text: texts[1], Topics: texts[2:]}
		toks := referenceTokenize(strings.Join(d.Texts(nil), " "))
		want, wantLen := termFreqs(toks), len(toks)
		if got, n := docTerms(d); !slices.Equal(got, want) || n != wantLen {
			t.Fatalf("%+q: docTerms %v (%d tokens), the reference %v (%d)", d.Texts(nil), got, n, want, wantLen)
		}
	})
}

// span is a byte range of memory, [lo, hi).
type span struct{ lo, hi uintptr }

func (a span) overlaps(b span) bool { return a.lo < b.hi && b.lo < a.hi }

// stringSpan is where s's bytes lie.
func stringSpan(s string) span {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return span{p, p + uintptr(len(s))}
}

// dictionary is where cx's term strings lie, failing unless they lie end to
// end, in order: the substrings of one string.
func dictionary(t *testing.T, what string, cx *compiledIndex) span {
	t.Helper()
	var d span
	for i, term := range cx.termList {
		s := stringSpan(term)
		if i == 0 {
			d = s
		} else if s.lo != d.hi {
			t.Fatalf("%s: term %q does not follow %q in one dictionary", what, term, cx.termList[i-1])
		}
		d.hi = s.hi
	}
	return d
}

// stagedSpans returns, per put op, where the terms docTerms gave it lie.
func stagedSpans(ops []stagedOp) []span {
	var out []span
	for _, op := range ops {
		if len(op.terms) > 0 {
			out = append(out, span{stringSpan(op.terms[0].term).lo, stringSpan(op.terms[len(op.terms)-1].term).hi})
		}
	}
	return out
}

// TestIndexOwnsItsDictionary: the index a window compiles, a tier merge and
// Open's merge of the snapshot file with the log each list their terms as
// substrings of one string of their own — never a staged document's terms
// (a segment would pin its documents' term strings) or a source index's
// dictionary (a merged index would pin retired ones).
func TestIndexOwnsItsDictionary(t *testing.T) {
	s := memStore(t)
	r := rand.New(rand.NewSource(4))
	put := func(n int) (*snapshot, []span) {
		t.Helper()
		ops := make([]stagedOp, n)
		for i := range ops {
			ops[i] = stagePut(shadowDoc(r, fmt.Sprintf("d%03d", r.Intn(400)), int64(i)))
		}
		staged := stagedSpans(ops)
		prev := s.snap.Load()
		if err := commitOps(s, ops...); err != nil {
			t.Fatal(err)
		}
		return prev, staged
	}
	notIn := func(what string, dict span, others []span) {
		t.Helper()
		for _, o := range others {
			if dict.overlaps(o) {
				t.Fatalf("%s: its dictionary %v overlaps %v", what, dict, o)
			}
		}
	}

	_, staged := put(5)
	sn := s.snap.Load()
	notIn("a window's index", dictionary(t, "a window's index", sn.segs[len(sn.segs)-1].cx), staged)

	merged := false
	for w := 0; w < 64 && !merged; w++ {
		prev, staged := put(1 + r.Intn(4))
		now := s.snap.Load()
		if merged = mergedSince(prev, now); !merged {
			continue
		}
		sources := staged
		for _, seg := range prev.segs {
			if !slices.Contains(now.segs, seg) {
				sources = append(sources, dictionary(t, "a merge's source", seg.cx))
			}
		}
		cx := now.segs[len(now.segs)-1].cx
		notIn("a tier merge's index", dictionary(t, "a tier merge's index", cx), sources)
	}
	if !merged {
		t.Fatal("64 windows and no tier merge")
	}

	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := d.Put(shadowDoc(r, fmt.Sprintf("o%02d", i%20), int64(i))); err != nil {
			t.Fatal(err)
		}
		if i == 14 {
			if err := d.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = Open(Options{Dir: dir, ConceptDim: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if segs := d.snap.Load().segs; len(segs) != 1 {
		t.Fatalf("a reopened store holds %d segments", len(segs))
	} else {
		dictionary(t, "Open's merge of the file and the log", segs[0].cx)
	}
}

// stagePut stages a put of d as PutBatch does, d being the store's copy.
func stagePut(d *Document) stagedOp {
	terms, n := docTerms(d)
	return stagedOp{op: opPut, batchDoc: batchDoc{d, terms, n}}
}

// hitTerms is what h.Terms yields, in order.
func hitTerms(h Hit) []termTF {
	var out []termTF
	h.Terms(func(term string, tf int) { out = append(out, termTF{term: term, tf: tf}) })
	return out
}

// TestHitTermsMatchDocTerms: every document a store holds, reached as a hit
// — of the time scan and of a text search — yields docTerms through
// Hit.Terms, term for term, count for count, read from the forward index
// without an allocation, however the index was built: a commit window, a
// tier merge, Compact, Open from the v2 file and Open through the legacy
// reader. A hit keeps its place: taken before a tier merge, a replace, a
// delete or a Compact, it still yields its own document's terms, without an
// allocation.
func TestHitTermsMatchDocTerms(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	newDoc := func(id string) *Document {
		d := shadowDoc(r, id, int64(r.Intn(1000)))
		for w := r.Intn(6); w > 0; w-- { // repeats: counts above one, up to the block size and past it
			d.Text += strings.Repeat(" "+shadowVocab[r.Intn(len(shadowVocab))], 1+r.Intn(200))
		}
		d.Text += fmt.Sprintf(" rare%d", r.Intn(40))
		return d
	}
	requireTerms := func(stage string, hits []Hit) {
		t.Helper()
		for _, h := range hits {
			want, _ := docTerms(h.Doc)
			if got := hitTerms(h); !slices.Equal(got, want) {
				t.Fatalf("%s: %s's Terms %v, docTerms %v", stage, h.Doc.ID, got, want)
			}
			if !raceEnabled {
				if n := testing.AllocsPerRun(5, func() { h.Terms(func(string, int) {}) }); n != 0 {
					t.Fatalf("%s: %s's Terms makes %v allocations, want 0", stage, h.Doc.ID, n)
				}
			}
		}
	}
	everyTerm := strings.Join(shadowVocab, " ") // every document's title carries two
	held := func(stage string, s *Store, wantHeld int) []Hit {
		t.Helper()
		hits := s.Newest("", 0)
		if len(hits) != wantHeld || s.Len() != wantHeld {
			t.Fatalf("%s: %d documents reached, Len %d, want %d", stage, len(hits), s.Len(), wantHeld)
		}
		requireTerms(stage+", time scan", hits)
		found := s.SearchText(everyTerm, wantHeld)
		if len(found) != wantHeld {
			t.Fatalf("%s: the text search reached %d documents, want %d", stage, len(found), wantHeld)
		}
		requireTerms(stage+", text search", found)
		return hits
	}

	dir := t.TempDir()
	opts := Options{Dir: dir, ConceptDim: 8, Seed: 7}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*Document, 8)
	for i := range batch {
		batch[i] = newDoc(fmt.Sprintf("d%03d", i))
	}
	if err := s.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	window := held("window", s, 8)

	prev := s.snap.Load()
	for i := 8; i < 80; i++ {
		if err := s.Put(newDoc(fmt.Sprintf("d%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if !mergedSince(prev, s.snap.Load()) {
		t.Fatal("no tier merge in 72 single-document windows")
	}
	requireTerms("window hits after a tier merge", window)
	merged := held("tier merge", s, 80)

	if err := s.Put(newDoc("d005")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("d006"); err != nil {
		t.Fatal(err)
	}
	requireTerms("hits after a replace and a delete", merged) // d005's old version and d006 among them
	written := held("after replace and delete", s, 79)

	// The log so far becomes a legacy snapshot, as stores wrote it before
	// v2: a record stream with no magic, which Open replays.
	legacy := t.TempDir()
	snapPath, walPath := snapshotPaths(dir)
	legacySnap, _ := snapshotPaths(legacy)
	copyFile(t, walPath, legacySnap)

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	requireTerms("hits after Compact", written)
	held("compact", s, 79)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if raw, err := os.ReadFile(snapPath); err != nil || !strings.HasPrefix(string(raw), snapMagic) {
		t.Fatalf("the compacted snapshot is not a v2 file: %v", err)
	}
	if s, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	held("open v2", s, 79)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if s, err = Open(Options{Dir: legacy, ConceptDim: 8, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	held("open legacy", s, 79)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

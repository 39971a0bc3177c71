package docstore

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/feature"
	"repro/internal/wire"
)

// marshalDoc is d's encoding on a fresh writer.
func marshalDoc(d *Document) []byte {
	var w wire.Writer
	d.encode(&w)
	return w.Bytes()
}

func TestDocumentMarshalRoundtrip(t *testing.T) {
	d := &Document{
		ID: "d1", Kind: KindCatalogEntry, Title: "Flemish Drawing",
		Text: "a 17th century drawing", Topics: []string{"art", "dutch"},
		Concept:    feature.Vector{0.5, -1, 2},
		ColorHist:  feature.Vector{0.2, 0.8},
		Texture:    feature.Vector{1},
		Provenance: "auction-3", CreatedAt: 12345,
		Meta: map[string]string{"price": "200", "lot": "17"},
	}
	got, err := unmarshalDocument(marshalDoc(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, d)
	}
}

func TestDocumentMarshalEmptyFields(t *testing.T) {
	d := &Document{ID: "x"}
	got, err := unmarshalDocument(marshalDoc(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "x" || got.Meta != nil || got.Topics != nil {
		t.Fatalf("got %+v", got)
	}
}

func TestDocumentMarshalDeterministic(t *testing.T) {
	d := &Document{ID: "d", Meta: map[string]string{"a": "1", "b": "2", "c": "3", "z": "4"}}
	b1 := marshalDoc(d)
	for i := 0; i < 10; i++ {
		if !reflect.DeepEqual(marshalDoc(d), b1) {
			t.Fatal("marshal not deterministic (meta ordering)")
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	d := &Document{ID: "d1", Title: "t"}
	b := marshalDoc(d)
	if _, err := unmarshalDocument(b[:len(b)-3]); err == nil {
		t.Fatal("truncated document decoded without error")
	}
}

func TestDocumentRoundtripProperty(t *testing.T) {
	f := func(id, title, text, prov string, at int64, topics []string) bool {
		d := &Document{ID: id, Title: title, Text: text, Provenance: prov, CreatedAt: at, Topics: topics}
		got, err := unmarshalDocument(marshalDoc(d))
		if err != nil {
			return false
		}
		if len(d.Topics) == 0 {
			d.Topics = nil
		}
		return reflect.DeepEqual(got, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTokensAndSnippet(t *testing.T) {
	d := &Document{Title: "Gold Ring", Text: "byzantine filigree", Topics: []string{"jewelry"}}
	toks := d.Tokens()
	want := map[string]bool{"gold": true, "ring": true, "byzantine": true, "filigree": true, "jewelry": true}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for _, tok := range toks {
		if !want[tok] {
			t.Fatalf("unexpected token %q", tok)
		}
	}
	if s := d.Snippet(4); s != "Gold" {
		t.Fatalf("snippet = %q", s)
	}
	empty := &Document{Text: "only body"}
	if s := empty.Snippet(100); s != "only body" {
		t.Fatalf("snippet fallback = %q", s)
	}
}

// textsCases are documents whose parts meet at every kind of boundary.
var textsCases = []*Document{
	{},
	{Title: "Gold Ring", Text: "byzantine filigree", Topics: []string{"jewelry"}},
	{Title: "ends in a letter", Text: "Starts with one", Topics: []string{"x", "of", "the"}},
	{Text: "no title", Topics: []string{"", "two words", "ÉCOLE", "a", "b", "c", "d", "e", "f", "nine topics"}},
	{Title: "the", Text: "and", Topics: []string{"or"}},
}

// TestTextsStreamToTokens: reading Texts through a feature.Tokenizer — what
// the personalize step does instead of building Tokens — yields Tokens.
func TestTextsStreamToTokens(t *testing.T) {
	for _, d := range textsCases {
		var got []string
		var tz feature.Tokenizer
		for _, text := range d.Texts(nil) {
			tz.Reset(text)
			for tok, ok := tz.Next(); ok; tok, ok = tz.Next() {
				got = append(got, string(tok))
			}
		}
		if want := d.Tokens(); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: streamed %q, Tokens %q", d, got, want)
		}
	}
}

func TestKindStringNames(t *testing.T) {
	if KindCatalogEntry.String() != "catalog" || Kind(99).String() != "kind(99)" {
		t.Fatal("kind names wrong")
	}
}

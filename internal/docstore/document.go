// Package docstore is the per-node storage engine of an Agora information
// source: a durable document store with an append-only write-ahead log,
// snapshots with log compaction, and three in-memory indexes — an inverted
// text index, a column of concept vectors that similarity search scans
// exactly, and a sorted time index over ingestion time for freshness scans.
//
// Every independent information system in the agora (museum repository,
// auction house, magazine archive, a researcher's personal information base)
// runs one Store.
package docstore

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/feature"
	"repro/internal/wire"
)

// Kind labels what a document is, mirroring the paper's scenario: scientific
// material, museum holdings, auction catalogs, magazine articles, and
// personal annotations.
type Kind uint8

// Document kinds.
const (
	KindArticle Kind = iota
	KindHolding
	KindCatalogEntry
	KindMagazine
	KindAnnotation
	KindThesis
)

var kindNames = [...]string{"article", "holding", "catalog", "magazine", "annotation", "thesis"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Document is one stored information object. Concept is its projection into
// the shared concept space (used for similarity search and cross-modal
// matching); Visual is present for image-bearing documents.
type Document struct {
	ID         string
	Kind       Kind
	Title      string
	Text       string
	Topics     []string
	Concept    feature.Vector
	ColorHist  feature.Vector
	Texture    feature.Vector
	Provenance string // originating source id
	CreatedAt  int64  // virtual or unix nanos, monotone per store
	Meta       map[string]string
}

// Texts appends the document's searchable texts to dst: title, body, then
// each topic. Tokens is the tokens of these in turn; the write path's counter
// (docTerms) streams them (feature.Tokenizer) instead of building the list,
// and readers take its counts from the index a search found it in (Hit.Terms).
func (d *Document) Texts(dst []string) []string {
	return append(append(dst, d.Title, d.Text), d.Topics...)
}

// Tokens returns the tokenized searchable text (title + body + topics).
func (d *Document) Tokens() []string {
	return feature.Tokenize(d.Texts(nil)...)
}

// Snippet returns a short display excerpt.
func (d *Document) Snippet(n int) string {
	s := d.Title
	if s == "" {
		s = d.Text
	}
	if len(s) > n {
		return s[:n]
	}
	return s
}

// Clone returns a deep copy, so callers may mutate results without touching
// the store's copy.
func (d *Document) Clone() *Document {
	cp := *d
	cp.Topics = append([]string(nil), d.Topics...)
	cp.Concept = d.Concept.Clone()
	cp.ColorHist = d.ColorHist.Clone()
	cp.Texture = d.Texture.Clone()
	cp.Meta = maps.Clone(d.Meta)
	return &cp
}

// encode writes d to w with the wire codec: the stable on-disk form of a WAL
// put and of a snapshot's document table. Meta goes in key order, so a
// document has one encoding; a stack array holds the keys of any usual Meta,
// so encoding into a warm writer allocates nothing.
func (d *Document) encode(w *wire.Writer) {
	w.String(d.ID)
	w.U8(uint8(d.Kind))
	w.String(d.Title)
	w.String(d.Text)
	w.Strings(d.Topics)
	w.F64s(d.Concept)
	w.F64s(d.ColorHist)
	w.F64s(d.Texture)
	w.String(d.Provenance)
	w.I64(d.CreatedAt)
	w.Uvarint(uint64(len(d.Meta)))
	var kb [8]string
	keys := kb[:0]
	for k := range d.Meta {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		w.String(k)
		w.String(d.Meta[k])
	}
}

func unmarshalDocument(b []byte) (*Document, error) {
	r := wire.NewReader(b)
	d := &Document{
		ID:         r.String(),
		Kind:       Kind(r.U8()),
		Title:      r.String(),
		Text:       r.String(),
		Topics:     r.Strings(),
		Concept:    feature.Vector(r.F64s()),
		ColorHist:  feature.Vector(r.F64s()),
		Texture:    feature.Vector(r.F64s()),
		Provenance: r.String(),
		CreatedAt:  r.I64(),
	}
	n := r.Uvarint()
	if n > 0 {
		if n > 1<<20 {
			return nil, fmt.Errorf("docstore: meta count %d too large", n)
		}
		d.Meta = make(map[string]string, n)
		for i := uint64(0); i < n; i++ {
			k := r.String()
			v := r.String()
			if r.Err() != nil {
				break
			}
			d.Meta[k] = v
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("docstore: decoding document: %w", err)
	}
	return d, nil
}

// Package docstore is the per-node storage engine of an Agora information
// source: a durable document store with an append-only write-ahead log,
// snapshots with log compaction, and three in-memory indexes — an inverted
// text index, an LSH vector index for similarity search, and a sorted time
// index over ingestion time for freshness scans.
//
// Every independent information system in the agora (museum repository,
// auction house, magazine archive, a researcher's personal information base)
// runs one Store.
package docstore

import (
	"fmt"
	"maps"
	"slices"
	"strings"

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
// each topic. Tokens is the tokens of these in turn; a reader that only looks
// tokens up streams them (feature.Tokenizer) instead of building the list.
func (d *Document) Texts(dst []string) []string {
	return append(append(dst, d.Title, d.Text), d.Topics...)
}

// Tokens returns the tokenized searchable text (title + body + topics).
func (d *Document) Tokens() []string {
	var sb strings.Builder
	sb.WriteString(d.Title)
	sb.WriteByte(' ')
	sb.WriteString(d.Text)
	for _, t := range d.Topics {
		sb.WriteByte(' ')
		sb.WriteString(t)
	}
	return feature.Tokenize(sb.String())
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

// marshal encodes a document with the wire codec (stable on-disk format).
func (d *Document) marshal() []byte {
	w := wire.NewWriter(256)
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
	// Deterministic order is not required for correctness on disk, but it
	// makes byte-level comparisons in tests stable.
	keys := make([]string, 0, len(d.Meta))
	for k := range d.Meta {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		w.String(k)
		w.String(d.Meta[k])
	}
	return w.Bytes()
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

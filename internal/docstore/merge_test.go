package docstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/feature"
)

// requireSameIndex compares everything a query can observe of two compiled
// indexes: the ordinal assignment, per-document lengths, every term's
// document frequency and block directory, and the encoded postings bytes.
func requireSameIndex(t *testing.T, stage string, got, want *compiledIndex) {
	t.Helper()
	switch {
	case !reflect.DeepEqual(got.ids, want.ids):
		t.Fatalf("%s: ids differ:\n got  %v\n want %v", stage, got.ids, want.ids)
	case !reflect.DeepEqual(got.docLens, want.docLens):
		t.Fatalf("%s: docLens differ", stage)
	case !reflect.DeepEqual(got.termList, want.termList):
		t.Fatalf("%s: term lists differ:\n got  %v\n want %v", stage, got.termList, want.termList)
	case !reflect.DeepEqual(got.tms, want.tms):
		t.Fatalf("%s: term postings (df, block ranges, bounds) differ", stage)
	case !reflect.DeepEqual(got.blocks, want.blocks):
		t.Fatalf("%s: block directories differ", stage)
	case !bytes.Equal(got.data, want.data):
		t.Fatalf("%s: encoded postings differ", stage)
	case !reflect.DeepEqual(got.fwd, want.fwd):
		t.Fatalf("%s: forward indexes differ", stage)
	}
}

// freshIndex builds the compiled index of a live set the one way there is:
// one merge of the whole set, staged, over no segments.
func freshIndex(live map[string]*Document) *compiledIndex {
	b := newBatch(len(live), 0)
	for _, d := range live {
		terms, n := docTerms(d)
		b.put(d, terms, n, nil)
	}
	cx := mergeIndex(nil, b)
	return cx
}

// mergedSince reports whether a merge lies between two snapshots of one
// store: an index of the first that the second no longer holds.
func mergedSince(prev, now *snapshot) bool {
	return slices.ContainsFunc(prev.segs, func(seg *segment) bool {
		return !slices.ContainsFunc(now.segs, func(n *segment) bool { return n.cx == seg.cx })
	})
}

// snapshotBytes serializes cx as a v2 snapshot.
func snapshotBytes(t *testing.T, cx *compiledIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeSnapshotV2(&buf, cx); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadSnapshotBytes loads raw as a store's snapshot file would be loaded.
func loadSnapshotBytes(t testing.TB, raw []byte) (*compiledIndex, error) {
	path := filepath.Join(t.TempDir(), "snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return loadSnapshotFile(path)
}

// TestMergeIndexMatchesFreshBuild: a compiled index is the previous ones
// merged, however the writes got there — single writes each compiled into a
// segment, bulk windows, windows mixing puts and deletes, with tier merges
// between them. After every round of a random put/replace/delete history the
// merge of the published segments must equal one merge of the whole live set
// into an empty base, and survive a v2 snapshot round trip byte for byte;
// rare terms here lose their only carrier (every copy dead) and get it back.
func TestMergeIndexMatchesFreshBuild(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s, err := Open(Options{ConceptDim: 8, Seed: 1, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]*Document{}
	stamp := int64(0)
	newDoc := func() *Document {
		stamp++
		d := shadowDoc(r, fmt.Sprintf("n%03d", r.Intn(300)), stamp)
		if r.Intn(4) == 0 {
			d.Text += fmt.Sprintf(" rare%d", r.Intn(12))
		}
		return d
	}
	merges := 0
	for round := 0; round < 60; round++ {
		before := s.snap.Load()
		switch round % 3 {
		case 0: // single writes: a segment each
			for i := 0; i < 1+r.Intn(40); i++ {
				if r.Intn(3) == 0 {
					id := fmt.Sprintf("n%03d", r.Intn(300))
					if err := s.Delete(id); err != nil && !errors.Is(err, ErrNotFound) {
						t.Fatal(err)
					}
					delete(live, id)
				} else {
					d := newDoc()
					if err := s.Put(d); err != nil {
						t.Fatal(err)
					}
					live[d.ID] = d
				}
			}
		case 1: // one bulk window
			batch := make([]*Document, 70+r.Intn(80))
			for i := range batch {
				batch[i] = newDoc()
				live[batch[i].ID] = batch[i]
			}
			if err := s.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
		case 2: // a window of puts and deletes, small or large
			var ops []stagedOp
			for i := 0; i < 10+r.Intn(120); i++ {
				if r.Intn(3) == 0 {
					id := fmt.Sprintf("n%03d", r.Intn(300))
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
		}
		sn := s.snap.Load()
		if mergedSince(before, sn) {
			merges++
		}
		stageName := fmt.Sprintf("round %d", round)
		if s.Len() != len(live) {
			t.Fatalf("%s: Len %d, want %d", stageName, s.Len(), len(live))
		}
		fresh := freshIndex(live)
		merged := mergeIndex(sn.segs, nil)
		requireSameIndex(t, stageName+": merge vs fresh", merged, fresh)
		raw := snapshotBytes(t, merged)
		loaded, err := loadSnapshotBytes(t, raw)
		if err != nil || loaded == nil {
			t.Fatalf("%s: loading the snapshot: %v", stageName, err)
		}
		requireSameIndex(t, stageName+": snapshot round trip", loaded, fresh)
		if !bytes.Equal(snapshotBytes(t, loaded), raw) {
			t.Fatalf("%s: a loaded snapshot re-serialises differently", stageName)
		}
	}
	if merges < 10 {
		t.Fatalf("only %d rounds with a merge in 60: the history is not crossing merge boundaries", merges)
	}

	// One merge of k segments with dead ordinals in each: the shapes of
	// tierSchedule (four segments, tombstones in three; five, tombstones in
	// four; after a dead-share and after a tier merge), merged as the
	// compactor merges, against the fresh build of the live set.
	if s, err = Open(Options{ConceptDim: 8, Seed: 1, QueryCacheSize: -1}); err != nil {
		t.Fatal(err)
	}
	clear(live)
	most := 0
	tierSchedule(t, s, r, tierOps{
		put: func(_ string, d *Document) {
			if err := s.Put(d); err != nil {
				t.Fatal(err)
			}
			live[d.ID] = d
		},
		del: func(_, id string) {
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		},
		batch: func(_ string, docs []*Document) {
			if err := s.PutBatch(docs); err != nil {
				t.Fatal(err)
			}
			for _, d := range docs {
				live[d.ID] = d
			}
		},
		shaped: func(stage string, sn *snapshot) {
			t.Helper()
			tombstoned := 0
			for _, seg := range sn.segs {
				if len(seg.dead) > 0 {
					tombstoned++
				}
			}
			most = max(most, tombstoned)
			merged := mergeIndex(sn.segs, nil)
			requireSameIndex(t, stage+": k-way merge vs fresh", merged, freshIndex(live))
		},
	})
	if most < 3 {
		t.Fatalf("at most %d segments with dead ordinals went into one merge, want 3 or more", most)
	}
}

// rawTerm is one term of a hand-written snapshot: its declared df and its
// blocks exactly as given, so a test can write what the encoder never would.
type rawTerm struct {
	term   string
	blocks [][]postEntry
}

// rawSnapshotV2 writes a v2 snapshot of documents with the given ids (each
// of length 3) and terms, verbatim, under a valid checksum: only the
// structure checks stand between it and the index.
func rawSnapshotV2(ids []string, terms []rawTerm) []byte {
	buf := binary.AppendUvarint([]byte(snapMagic), uint64(len(ids)))
	for _, id := range ids {
		raw := marshalDoc(doc(id, "t", "b", 1, nil))
		buf = binary.AppendUvarint(buf, uint64(len(raw)))
		buf = append(buf, raw...)
	}
	for range ids {
		buf = binary.AppendUvarint(buf, 3)
	}
	buf = binary.AppendUvarint(buf, uint64(len(terms)))
	for _, rt := range terms {
		buf = binary.AppendUvarint(buf, uint64(len(rt.term)))
		buf = append(buf, rt.term...)
		df := 0
		for _, b := range rt.blocks {
			df += len(b)
		}
		buf = binary.AppendUvarint(buf, uint64(df))
		for _, b := range rt.blocks {
			buf = appendPostingsBlock(buf, b)
		}
	}
	return restampCRC(buf)
}

// restampCRC appends the checksum of everything after the magic.
func restampCRC(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(snapMagic):]))
}

// TestSnapshotV2RefusesDisorder: the loader re-sorts nothing, so a snapshot
// whose checksum is right but whose ids, terms or ordinals are not strictly
// ascending (or point past the document table) must be refused at Open, not
// served. The well-formed sibling of each case loads.
func TestSnapshotV2RefusesDisorder(t *testing.T) {
	seq := func(from, n int) []postEntry {
		out := make([]postEntry, n)
		for i := range out {
			out[i] = postEntry{ord: uint32(from + i), tf: 1}
		}
		return out
	}
	many := make([]string, blockSize+2)
	for i := range many {
		many[i] = fmt.Sprintf("d%03d", i)
	}
	cases := []struct {
		name  string
		ids   []string
		terms []rawTerm
		ok    bool
	}{
		{"well formed", []string{"a", "b"}, []rawTerm{{"xx", [][]postEntry{{{0, 1}}}}, {"yy", [][]postEntry{{{0, 2}, {1, 1}}}}}, true},
		{"two blocks", many, []rawTerm{{"xx", [][]postEntry{seq(0, blockSize), seq(blockSize, 2)}}}, true},
		{"ids out of order", []string{"b", "a"}, []rawTerm{{"xx", [][]postEntry{{{0, 1}}}}}, false},
		{"id repeated", []string{"a", "a"}, []rawTerm{{"xx", [][]postEntry{{{0, 1}}}}}, false},
		{"terms out of order", []string{"a", "b"}, []rawTerm{{"yy", [][]postEntry{{{0, 1}}}}, {"xx", [][]postEntry{{{1, 1}}}}}, false},
		{"term repeated", []string{"a", "b"}, []rawTerm{{"xx", [][]postEntry{{{0, 1}}}}, {"xx", [][]postEntry{{{1, 1}}}}}, false},
		{"ordinal repeated across blocks", many, []rawTerm{{"xx", [][]postEntry{seq(0, blockSize), seq(blockSize-1, 2)}}}, false},
		{"ordinal descends across blocks", many, []rawTerm{{"xx", [][]postEntry{seq(2, blockSize), seq(0, 2)}}}, false},
		{"ordinal past the documents", []string{"a", "b"}, []rawTerm{{"xx", [][]postEntry{{{0, 1}, {2, 1}}}}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			snapPath, _ := snapshotPaths(dir)
			if err := os.WriteFile(snapPath, rawSnapshotV2(tc.ids, tc.terms), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
			if tc.ok {
				if err != nil {
					t.Fatalf("well-formed snapshot refused: %v", err)
				}
				if s.Len() != len(tc.ids) || len(s.SearchText("xx", 3)) == 0 {
					t.Fatalf("well-formed snapshot loaded wrong: %d docs, %d hits", s.Len(), len(s.SearchText("xx", 3)))
				}
				s.Close()
				return
			}
			if err == nil {
				s.Close()
				t.Fatal("Open served a disordered snapshot")
			}
			if !strings.Contains(err.Error(), "corrupt snapshot") {
				t.Fatalf("refused, but not as corrupt: %v", err)
			}
		})
	}
}

// TestReopenMergesWALTail: Open loads the snapshot's index and merges the
// whole WAL tail into it once. The tail here replaces and deletes documents
// the snapshot holds, and adds new ones; the reopened store must equal a
// monolithic store of the live set — and, for the vector, visual, topic and
// time reads, the brute-force oracle. Both snapshot formats take the same
// path: a v2 file from Compact, and a legacy WAL-format record stream; and
// both are reopened twice, from the closed store's files and from a crash
// image of them (copied while the store runs, a half-written record appended).
func TestReopenMergesWALTail(t *testing.T) {
	for _, name := range []string{"v2", "legacy", "v2/crash", "legacy/crash"} {
		format, crash := strings.TrimSuffix(name, "/crash"), strings.HasSuffix(name, "/crash")
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(23))
			dir := t.TempDir()
			opts := Options{Dir: dir, ConceptDim: 8, Seed: 7, QueryCacheSize: -1}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			live := map[string]*Document{}
			write := func(n, idRange int, at int64) {
				for i := 0; i < n; i++ {
					id := fmt.Sprintf("w%03d", r.Intn(idRange))
					if r.Intn(4) == 0 {
						if err := s.Delete(id); err != nil && !errors.Is(err, ErrNotFound) {
							t.Fatal(err)
						}
						delete(live, id)
						continue
					}
					d := shadowDoc(r, id, at+int64(i))
					if r.Intn(5) == 0 {
						d.Text += fmt.Sprintf(" rare%d", r.Intn(8))
					}
					if err := s.Put(d); err != nil {
						t.Fatal(err)
					}
					live[id] = d
				}
			}
			write(300, 200, 0)
			snapPath, walPath := snapshotPaths(dir)
			if format == "v2" {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
			} else {
				// The log so far becomes the snapshot, as stores wrote it
				// before v2: a record stream with no magic.
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if err := os.Rename(walPath, snapPath); err != nil {
					t.Fatal(err)
				}
				if s, err = Open(opts); err != nil {
					t.Fatal(err)
				}
			}
			write(250, 260, 1000) // the tail: replaces, deletes, new ids
			if crash {
				img := t.TempDir()
				imgSnap, imgWAL := snapshotPaths(img)
				copyFile(t, snapPath, imgSnap)
				copyFile(t, walPath, imgWAL)
				f, err := os.OpenFile(imgWAL, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{opPut, 200, 0, 0, 0, 1, 2}); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				opts.Dir, walPath = img, imgWAL
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(walPath); err != nil || fi.Size() == 0 {
				t.Fatalf("no WAL tail to replay: %v", err)
			}

			s, err = Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			mono, err := Open(Options{ConceptDim: 8, Seed: 7, QueryCacheSize: -1})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range live {
				if err := mono.Put(d); err != nil {
					t.Fatal(err)
				}
			}
			if s.Len() != mono.Len() || s.Len() != len(live) {
				t.Fatalf("Len %d, monolithic %d, live %d", s.Len(), mono.Len(), len(live))
			}
			requireSameIndex(t, "reopened vs fresh", s.snap.Load().segs[0].cx, freshIndex(live))
			requireReadsMatch(t, "reopened", s, live)
			for _, q := range []string{"gold ring", "byzantine", "amber jade", "mosaic coin", "rare3", "rare5 silver"} {
				want := mono.SearchTextExhaustive(q, 8)
				if got := s.SearchTextExhaustive(q, 8); !hitsEqual(got, want) {
					t.Fatalf("SearchTextExhaustive(%q): %v, monolithic %v", q, hitIDs(got), hitIDs(want))
				}
				if got := s.SearchText(q, 8); !hitsEqual(got, want) {
					t.Fatalf("SearchText(%q): %v, monolithic %v", q, hitIDs(got), hitIDs(want))
				}
			}
		})
	}
}

// TestGoldenSnapshotV2 pins the on-disk format across the index rewrite:
// testdata/golden_v2.snap was written by the commit before mergeIndex
// existed (Compact after a put/replace/delete history), with the answers it
// gave recorded beside it. It must load, answer the same, and re-serialise
// to the same bytes.
func TestGoldenSnapshotV2(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(filepath.Join("testdata", "golden_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Docs, Terms int
		Queries     []struct {
			Query string
			K     int
			Hits  []struct {
				ID    string
				Score float64
			}
		}
	}
	if err := json.Unmarshal(js, &golden); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapPath, _ := snapshotPaths(dir)
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if terms := len(s.snap.Load().segs[0].cx.termList); s.Len() != golden.Docs || terms != golden.Terms {
		t.Fatalf("loaded %d docs / %d terms, recorded %d / %d", s.Len(), terms, golden.Docs, golden.Terms)
	}
	if len(golden.Queries) == 0 {
		t.Fatal("no recorded queries")
	}
	for _, q := range golden.Queries {
		got := s.SearchText(q.Query, q.K)
		if len(got) != len(q.Hits) {
			t.Fatalf("SearchText(%q): %d hits, recorded %d", q.Query, len(got), len(q.Hits))
		}
		for i, h := range got {
			if h.Doc.ID != q.Hits[i].ID || h.Score != q.Hits[i].Score {
				t.Fatalf("SearchText(%q) hit %d: %s %v, recorded %s %v", q.Query, i, h.Doc.ID, h.Score, q.Hits[i].ID, q.Hits[i].Score)
			}
		}
	}
	cx := s.snap.Load().segs[0].cx
	multi := false
	for _, tm := range cx.tms {
		multi = multi || tm.nBlocks > 1
	}
	if !multi {
		t.Fatal("the golden snapshot has no multi-block term")
	}
	if !bytes.Equal(snapshotBytes(t, cx), raw) {
		t.Fatal("the golden snapshot does not re-serialise byte for byte")
	}
	// The compactor's merge of everything writes the same file back.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(again, raw) {
		t.Fatalf("after a Compact the snapshot file differs from the golden one (%v)", err)
	}
}

// FuzzSnapshotV2 drives the snapshot loader with mutated files. The harness
// re-stamps the checksum, so a mutation reaches the structure checks instead
// of dying at the CRC. The loader may refuse anything; what it accepts must
// be a servable index: block-max and exhaustive search agree on it without
// panicking, and it re-serialises to a file that loads back the same.
func FuzzSnapshotV2(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	live := map[string]*Document{}
	for i := 0; i < 140; i++ {
		d := shadowDoc(r, fmt.Sprintf("f%03d", i), int64(i))
		live[d.ID] = d
	}
	var valid bytes.Buffer
	if err := writeSnapshotV2(&valid, freshIndex(live)); err != nil {
		f.Fatal(err)
	}
	strip := func(raw []byte) []byte { return raw[len(snapMagic) : len(raw)-4] }
	f.Add(strip(valid.Bytes()))
	f.Add(strip(rawSnapshotV2(nil, nil)))
	f.Add(strip(rawSnapshotV2([]string{"a", "b"}, []rawTerm{{"xx", [][]postEntry{{{0, 1}, {1, 3}}}}})))
	f.Add(strip(rawSnapshotV2([]string{"b", "a"}, []rawTerm{{"xx", [][]postEntry{{{0, 1}}}}})))
	f.Add(strip(rawSnapshotV2([]string{"a", "b"}, []rawTerm{{"xx", [][]postEntry{{{2, 1}}}}})))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		raw := restampCRC(append([]byte(snapMagic), payload...))
		cx, err := loadSnapshotBytes(t, raw)
		if err != nil {
			return
		}
		if cx == nil {
			t.Fatal("a file with the v2 magic was declined as legacy")
		}
		sn := &snapshot{epoch: 1, segs: []*segment{{cx: cx}}}
		for _, q := range []string{"gold ring", "byzantine amber", "xx"} {
			sc := getScratch()
			got := sn.searchTextRaw(feature.Tokenize(q), 5, sc, nil)
			want := sn.searchTextExhaustive(feature.Tokenize(q), 5, sc)
			putScratch(sc)
			if !hitsEqual(got, want) {
				t.Fatalf("query %q: block-max %v, exhaustive %v", q, hitIDs(got), hitIDs(want))
			}
		}
		again, err := loadSnapshotBytes(t, snapshotBytes(t, cx))
		if err != nil || again == nil {
			t.Fatalf("an accepted snapshot re-serialised to one that does not load: %v", err)
		}
		requireSameIndex(t, "re-serialised", again, cx)
	})
}

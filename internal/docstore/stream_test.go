package docstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"repro/internal/feature"
)

// referenceSnapshotV2 is the whole-buffer snapshot-v2 encoder the streaming
// writer replaced: every document marshalled on its own, the file built in
// one slice, the checksum taken over it at the end. writeSnapshotV2 must
// write exactly these bytes.
func referenceSnapshotV2(cx *compiledIndex) []byte {
	buf := append([]byte(nil), snapMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(cx.ids)))
	for _, d := range cx.docs {
		raw := marshalDoc(d)
		buf = binary.AppendUvarint(buf, uint64(len(raw)))
		buf = append(buf, raw...)
	}
	for _, dl := range cx.docLens {
		buf = binary.AppendUvarint(buf, uint64(dl))
	}
	buf = binary.AppendUvarint(buf, uint64(len(cx.termList)))
	for i, t := range cx.termList {
		tm := cx.tms[i]
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
		buf = binary.AppendUvarint(buf, uint64(tm.df))
		start := cx.blocks[tm.blockOff].off
		end := uint32(len(cx.data))
		if next := tm.blockOff + tm.nBlocks; int(next) < len(cx.blocks) {
			end = cx.blocks[next].off
		}
		buf = append(buf, cx.data[start:end]...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(snapMagic):]))
}

// streamDoc is document i of a corpus whose documents all encode to about
// the same size, with every field set: Meta, topics, a concept vector and
// both visual features.
func streamDoc(i int) *Document {
	d := doc(fmt.Sprintf("s%05d", i), shadowVocab[i%len(shadowVocab)]+" lot",
		fmt.Sprintf("%s %s piece %d", shadowVocab[(i/3)%len(shadowVocab)], shadowVocab[(i/7)%len(shadowVocab)], i%97),
		int64(i), feature.Vector{float64(i % 5), 1, -0.5, 2})
	d.Topics = []string{"alpha", shadowVocab[i%5]}
	d.ColorHist = feature.Vector{0.25, 0.5, float64(i%4) / 4}
	d.Texture = feature.Vector{float64(i % 3), 0.125}
	d.Meta = map[string]string{"lot": fmt.Sprint(i % 100), "house": "north", "era": shadowVocab[i%3]}
	return d
}

func streamCorpus(n int) map[string]*Document {
	live := make(map[string]*Document, n)
	for i := 0; i < n; i++ {
		d := streamDoc(i)
		live[d.ID] = d
	}
	return live
}

// TestSnapshotStreamMatchesReference: the streamed snapshot file is byte for
// byte the whole-buffer encoder's, for an empty index, one document, and an
// index whose file spans several of the writer's 64 KB chunks, and each file
// loads back into the index it was written from.
func TestSnapshotStreamMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name      string
		live      map[string]*Document
		minChunks int
	}{
		{"empty", map[string]*Document{}, 1},
		{"one", streamCorpus(1), 1},
		{"chunks", streamCorpus(3000), 3},
	} {
		cx := freshIndex(tc.live)
		got, want := snapshotBytes(t, cx), referenceSnapshotV2(cx)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: streamed file (%d bytes) differs from the reference (%d bytes)", tc.name, len(got), len(want))
		}
		if len(got) <= (tc.minChunks-1)*(64<<10) {
			t.Fatalf("%s: file of %d bytes spans fewer than %d chunks", tc.name, len(got), tc.minChunks)
		}
		back, err := loadSnapshotBytes(t, got)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireSameIndex(t, tc.name, back, cx)
	}
}

// TestWALRecordLayout: a put record is op ‖ length ‖ CRC-32 over op and
// payload ‖ the marshalled document, Meta included, and a delete record
// carries the id's bytes as its payload.
func TestWALRecordLayout(t *testing.T) {
	l, err := openWAL(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	d := streamDoc(42)
	if err := l.append(opPut, d, ""); err != nil {
		t.Fatal(err)
	}
	if err := l.append(opDelete, nil, d.ID); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(l.path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, r := range []struct {
		op      uint8
		payload []byte
	}{{opPut, marshalDoc(d)}, {opDelete, []byte(d.ID)}} {
		want = append(want, r.op)
		want = binary.LittleEndian.AppendUint32(want, uint32(len(r.payload)))
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(append([]byte{r.op}, r.payload...)))
		want = append(want, r.payload...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wal holds %x\nwant %x", got, want)
	}
	if l.size != int64(len(want)) {
		t.Fatalf("wal size %d, wrote %d", l.size, len(want))
	}
}

// TestWriteAllocsFlat pins that what the durable store writes is streamed,
// as allocation counts: writing a snapshot file costs as many allocations at
// 2 000 documents as at 100, a warm WAL put costs none, and compacting a
// one-segment store costs as many at 5 000 documents as at 500.
func TestWriteAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	// A collection empties the sync.Pools the merge draws on, and refilling
	// them would count; none runs while the counts are taken.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	snapAllocs := func(n int) float64 {
		cx := freshIndex(streamCorpus(n))
		return testing.AllocsPerRun(3, func() {
			if err := writeSnapshotV2(io.Discard, cx); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := snapAllocs(100), snapAllocs(2000); small != large {
		t.Errorf("writeSnapshotV2: %v allocations at 100 documents, %v at 2 000", small, large)
	}

	l, err := openWAL(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	plain := streamDoc(7)
	plain.Meta = nil
	for _, d := range []*Document{plain, streamDoc(8)} {
		if err := l.append(opPut, d, ""); err != nil { // warms the record buffer
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := l.append(opPut, d, ""); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("warm WAL put (%d Meta keys): %v allocations, want 0", len(d.Meta), n)
		}
	}

	compactAllocs := func(n int) float64 {
		s, err := Open(Options{Dir: t.TempDir(), ConceptDim: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		docs := make([]*Document, n)
		for i := range docs {
			docs[i] = streamDoc(i)
		}
		if err := s.PutBatch(docs); err != nil {
			t.Fatal(err)
		}
		if segs := len(s.snap.Load().segs); segs != 1 {
			t.Fatalf("%d segments after one batch", segs)
		}
		return testing.AllocsPerRun(3, func() {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := compactAllocs(500), compactAllocs(5000); small != large {
		t.Errorf("Compact: %v allocations at 500 documents, %v at 5 000", small, large)
	}
}

// TestLostLogFailsWrites: when compaction cannot reopen the log it leaves
// none, and every later write fails with the reason — neither acked nor
// published — instead of the committer dereferencing the missing log and
// taking the process down. Close still returns.
func TestLostLogFailsWrites(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), ConceptDim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(doc("kept", "gold ring", "a ring", 1, nil)); err != nil {
		t.Fatal(err)
	}
	reopen := errors.New("reopen refused")
	s.mu.Lock()
	if err := s.log.close(); err != nil {
		t.Fatal(err)
	}
	s.log, s.logErr = nil, reopen // what compactOnce leaves when openWAL fails
	s.mu.Unlock()
	epoch := s.snap.Load().epoch

	if err := s.Put(doc("lost", "gold coin", "a coin", 2, nil)); !errors.Is(err, reopen) {
		t.Fatalf("Put on a lost log: %v, want it to wrap %v", err, reopen)
	}
	if err := s.Delete("kept"); !errors.Is(err, reopen) {
		t.Fatalf("Delete on a lost log: %v, want it to wrap %v", err, reopen)
	}
	if _, err := s.Get("lost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("an unlogged put was published: Get = %v", err)
	}
	if _, err := s.Get("kept"); err != nil {
		t.Fatalf("an unlogged delete was published: Get = %v", err)
	}
	if got := s.snap.Load().epoch; got != epoch {
		t.Fatalf("epoch moved %d -> %d with nothing logged", epoch, got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

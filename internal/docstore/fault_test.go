package docstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/feature"
)

// TestWALRandomTruncationProperty simulates crashes at arbitrary byte
// offsets: for any truncation point, recovery must yield a clean prefix of
// the committed history — never an error, never a document that was not
// fully written before the cut.
func TestWALRandomTruncationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		const n = 30
		for i := 0; i < n; i++ {
			if err := s.Put(doc(fmt.Sprintf("d%03d", i), "title", "body text here", int64(i), nil)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		_, walPath := snapshotPaths(dir)
		info, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		cut := int64(r.Intn(int(info.Size()) + 1))
		if err := os.Truncate(walPath, cut); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1})
		if err != nil {
			t.Fatalf("trial %d cut %d: recovery failed: %v", trial, cut, err)
		}
		// Prefix property: if d_k survived, every d_j with j < k survived.
		last := -1
		for i := 0; i < n; i++ {
			if _, err := s2.Get(fmt.Sprintf("d%03d", i)); err == nil {
				if i != last+1 {
					t.Fatalf("trial %d cut %d: non-prefix recovery: d%03d present, d%03d missing", trial, cut, i, last+1)
				}
				last = i
			}
		}
		// The store must accept writes after recovery.
		if err := s2.Put(doc("post-crash", "t", "b", 999, nil)); err != nil {
			t.Fatal(err)
		}
		s2.Close()
	}
}

// TestWALCorruptionMidLog flips a byte in the middle of the log: the
// damaged record has valid log after it, which an append-only crash cannot
// produce, so recovery must refuse with ErrCorruptRecord rather than
// silently truncating the committed records behind the damage.
func TestWALCorruptionMidLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(doc(fmt.Sprintf("d%02d", i), "t", "some body", int64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	_, walPath := snapshotPaths(dir)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1}); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("open over mid-log corruption = %v, want ErrCorruptRecord", err)
	}
}

// TestWALTornFinalRecord damages only the LAST record: that is
// indistinguishable from a torn crash write, so recovery keeps the clean
// prefix, truncates the tail, and the store keeps working.
func TestWALTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(doc(fmt.Sprintf("d%02d", i), "t", "some body", int64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	_, walPath := snapshotPaths(dir)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // clobber the final byte: damaged last record
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1})
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 19 {
		t.Fatalf("expected the 19-record clean prefix, got %d docs", s2.Len())
	}
	if err := s2.Put(doc("new", "t", "b", 99, nil)); err != nil {
		t.Fatal(err)
	}
}

// FuzzReplayWAL drives the log decoder with arbitrary files. Replay may stop
// at a torn tail or refuse mid-log corruption, but it never panics, never
// claims a clean prefix longer than the file, and the prefix it calls clean
// is one: replaying just those bytes yields the same operations, untorn.
func FuzzReplayWAL(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := s.Put(doc(fmt.Sprintf("d%02d", i%9), "t", "some body", int64(i), feature.Vector{1, 0, 0, float64(i)})); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Delete("d03"); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	_, walPath := snapshotPaths(dir)
	log, err := os.ReadFile(walPath)
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(log)
	flipped[len(flipped)/3] ^= 0xFF
	f.Add(log)
	f.Add(log[:len(log)-5]) // torn tail
	f.Add(flipped)          // a bad checksum with log after it
	f.Add([]byte{})

	type record struct {
		op      uint8
		payload string
	}
	replay := func(t *testing.T, data []byte) (recs []record, clean int64, torn bool, err error) {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		clean, torn, err = replayWAL(path, func(op uint8, payload []byte) error {
			recs = append(recs, record{op, string(payload)})
			return nil
		})
		return recs, clean, torn, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, torn, err := replay(t, data)
		if err != nil && (!errors.Is(err, ErrCorruptRecord) || torn) {
			t.Fatalf("replay: torn %v, error %v", torn, err)
		}
		if clean < 0 || clean > int64(len(data)) || (err == nil && !torn && clean != int64(len(data))) {
			t.Fatalf("clean prefix %d of %d bytes (torn %v, error %v)", clean, len(data), torn, err)
		}
		again, clean2, torn2, err2 := replay(t, data[:clean])
		if err2 != nil || torn2 || clean2 != clean || !slices.Equal(again, recs) {
			t.Fatalf("the clean prefix replays to %d records, %d bytes, torn %v, error %v; the whole file gave %d records, %d bytes",
				len(again), clean2, torn2, err2, len(recs), clean)
		}
	})
}

// TestStoreConcurrentUse hammers a store from many goroutines; run with
// -race. Correctness bar: no races, no panics, all puts eventually visible.
func TestStoreConcurrentUse(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), ConceptDim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	workers := 8
	perWorker := 50
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-d%02d", w, i)
				v := make(feature.Vector, 8)
				v[(w+i)%8] = 1
				if err := s.Put(doc(id, fmt.Sprintf("gold item %d", i), "body", int64(i), v)); err != nil {
					t.Error(err)
					return
				}
				if i%5 == 0 {
					s.SearchText("gold", 5)
					s.SearchVector(v, 5)
					s.Freshest(3)
					if _, err := s.Get(id); err != nil {
						t.Errorf("own write not visible: %v", err)
						return
					}
				}
				if i%11 == 10 {
					if err := s.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	deletedPerWorker := perWorker / 11
	want := workers * (perWorker - deletedPerWorker)
	if s.Len() != want {
		t.Fatalf("len = %d, want %d", s.Len(), want)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
}

package docstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// copyFile copies src to dst (no fsync: the copy IS the crash image).
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	if err == nil {
		if werr := os.WriteFile(dst, data, 0o644); werr != nil {
			t.Fatal(werr)
		}
	}
}

// TestDeleteDurabilityMatchesPut pins the bugfix: with SyncEveryPut set,
// a Delete must fsync its commit window exactly like a Put does (the seed
// only flushed deletes, so an acknowledged delete could resurrect after a
// crash). Without the option neither op syncs.
func TestDeleteDurabilityMatchesPut(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Open(Options{Dir: t.TempDir(), ConceptDim: 4, Seed: 1, SyncEveryPut: true, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	syncs := reg.Counter("docstore.wal.syncs")
	if err := s.Put(doc("d1", "t", "b", 1, nil)); err != nil {
		t.Fatal(err)
	}
	afterPut := syncs.Value()
	if afterPut == 0 {
		t.Fatal("put with SyncEveryPut did not fsync")
	}
	if err := s.Delete("d1"); err != nil {
		t.Fatal(err)
	}
	if got := syncs.Value(); got <= afterPut {
		t.Fatalf("delete with SyncEveryPut did not fsync: syncs %d -> %d", afterPut, got)
	}

	reg2 := telemetry.NewRegistry()
	s2, err := Open(Options{Dir: t.TempDir(), ConceptDim: 4, Seed: 1, Telemetry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Put(doc("d1", "t", "b", 1, nil)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Delete("d1"); err != nil {
		t.Fatal(err)
	}
	if got := reg2.Counter("docstore.wal.syncs").Value(); got != 0 {
		t.Fatalf("without SyncEveryPut no op should fsync, got %d syncs", got)
	}
}

// TestGroupCommitWALByteIdentical is the determinism contract: the same
// operation sequence produces a byte-identical WAL whether it is committed
// one op per window or batched through PutBatch windows — so replay of a
// group-commit log is indistinguishable from replay of a serialized log.
func TestGroupCommitWALByteIdentical(t *testing.T) {
	mkDocs := func() []*Document {
		r := rand.New(rand.NewSource(7))
		docs := make([]*Document, 60)
		for i := range docs {
			docs[i] = doc(fmt.Sprintf("d%03d", i), fmt.Sprintf("title %d", r.Intn(100)),
				fmt.Sprintf("body %d %d", r.Intn(100), r.Intn(100)), int64(i), nil)
		}
		return docs
	}

	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := Open(Options{Dir: dirA, ConceptDim: 4, Seed: 1, SyncEveryPut: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(Options{Dir: dirB, ConceptDim: 4, Seed: 1, SyncEveryPut: true})
	if err != nil {
		t.Fatal(err)
	}

	// Store A: strictly serialized — one op, one window.
	for _, d := range mkDocs() {
		if err := a.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Delete("d010"); err != nil {
		t.Fatal(err)
	}

	// Store B: the same sequence, puts riding PutBatch windows.
	docs := mkDocs()
	for i := 0; i < len(docs); i += 7 {
		end := i + 7
		if end > len(docs) {
			end = len(docs)
		}
		if err := b.PutBatch(docs[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Delete("d010"); err != nil {
		t.Fatal(err)
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	_, walA := snapshotPaths(dirA)
	_, walB := snapshotPaths(dirB)
	rawA, err := os.ReadFile(walA)
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := os.ReadFile(walB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("WALs diverged: serialized %d bytes, batched %d bytes", len(rawA), len(rawB))
	}

	// And both replay to the same state.
	ra, err := Open(Options{Dir: dirA, ConceptDim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	rb, err := Open(Options{Dir: dirB, ConceptDim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if ra.Len() != rb.Len() || ra.Len() != 59 {
		t.Fatalf("replayed lengths diverged: %d vs %d (want 59)", ra.Len(), rb.Len())
	}
	ra.All(func(d *Document) bool {
		got, err := rb.Get(d.ID)
		if err != nil {
			t.Errorf("batched replay missing %s", d.ID)
			return false
		}
		if got.Title != d.Title || got.Text != d.Text || got.CreatedAt != d.CreatedAt {
			t.Errorf("replayed doc %s diverged", d.ID)
			return false
		}
		return true
	})
}

// TestGroupCommitCrashImage simulates a kill mid-window: while concurrent
// writers run against a SyncEveryPut store, the test images the WAL (a raw
// byte copy, exactly what a crashed machine's disk would hold) and recovers
// from the image. Every op acknowledged before the image was taken must
// survive; a half-written trailing window must truncate cleanly.
func TestGroupCommitCrashImage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1, SyncEveryPut: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const writers = 8
	var acked sync.Map // id -> true once the Put returned
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				id := fmt.Sprintf("w%d-%04d", w, i)
				if err := s.Put(doc(id, "t", "crash image body", int64(i), nil)); err != nil {
					t.Error(err)
					return
				}
				acked.Store(id, true)
			}
		}()
	}

	// Let some windows land, then image the store mid-flight.
	time.Sleep(30 * time.Millisecond)
	var ackedAtImage []string
	acked.Range(func(k, _ any) bool {
		ackedAtImage = append(ackedAtImage, k.(string))
		return true
	})
	imageDir := t.TempDir()
	snapPath, walPath := snapshotPaths(dir)
	imgSnap, imgWAL := snapshotPaths(imageDir)
	copyFile(t, snapPath, imgSnap)
	copyFile(t, walPath, imgWAL)
	stop.Store(true)
	wg.Wait()

	r, err := Open(Options{Dir: imageDir, ConceptDim: 4, Seed: 1})
	if err != nil {
		t.Fatalf("recovery from crash image failed: %v", err)
	}
	defer r.Close()
	for _, id := range ackedAtImage {
		if _, err := r.Get(id); err != nil {
			t.Fatalf("acked-before-image record %s lost: %v", id, err)
		}
	}
	if r.Len() < len(ackedAtImage) {
		t.Fatalf("recovered %d < %d acked", r.Len(), len(ackedAtImage))
	}
}

// TestCloseDuringPendingWindow races Close against a crowd of writers:
// every Put must return either nil or ErrClosed (never hang, never a torn
// ack), Close itself returns cleanly, and every nil-acked put survives
// reopen.
func TestCloseDuringPendingWindow(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1, SyncEveryPut: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var acked sync.Map
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				id := fmt.Sprintf("w%d-%04d", w, i)
				err := s.Put(doc(id, "t", "b", int64(i), nil))
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("put: %v", err)
					return
				}
				acked.Store(id, true)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatalf("close during pending window: %v", err)
	}
	wg.Wait()

	r, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	acked.Range(func(k, _ any) bool {
		if _, err := r.Get(k.(string)); err != nil {
			t.Errorf("acked put %s lost across close: %v", k, err)
			return false
		}
		return true
	})
}

// TestCommitStressWithDeletesAndSearches hammers a live committer from
// many goroutines mixing Put, PutBatch, Delete, and lock-free reads; run
// with -race. Correctness bar: no races, no hangs, final count exact.
func TestCommitStressWithDeletesAndSearches(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), ConceptDim: 8, Seed: 1, SyncEveryPut: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-%03d", w, i)
				switch {
				case i%10 == 9: // batch of three
					batch := []*Document{
						doc(id+"-a", "batch gold", "body", int64(i), nil),
						doc(id+"-b", "batch silver", "body", int64(i), nil),
						doc(id+"-a", "batch gold v2", "body", int64(i+1), nil), // dup id: later wins
					}
					if err := s.PutBatch(batch); err != nil {
						t.Error(err)
						return
					}
					if d, err := s.Get(id + "-a"); err != nil || d.Title != "batch gold v2" {
						t.Errorf("batch visibility: %v %v", d, err)
						return
					}
				default:
					if err := s.Put(doc(id, "gold item", "body text", int64(i), nil)); err != nil {
						t.Error(err)
						return
					}
				}
				if i%5 == 0 {
					s.SearchText("gold", 5)
					s.Freshest(3)
				}
				if i%7 == 6 {
					if err := s.Delete(id); err != nil {
						t.Error(err)
						return
					}
					if err := s.Delete(id); !errors.Is(err, ErrNotFound) {
						t.Errorf("double delete = %v, want ErrNotFound", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// Per worker: 40 iterations; i%10==9 (4 of them) put 2 unique batch
	// docs each, the other 36 put one doc; i%7==6 deletes its own id (5
	// iterations), but the i==69-style overlap (i both %10==9 and %7==6)
	// never happens below 40 except i=27? (27%10!=9) — compute directly.
	want := 0
	for i := 0; i < perWorker; i++ {
		if i%10 == 9 {
			want += 2 // -a (deduped) and -b
		} else {
			want++
		}
		if i%7 == 6 && i%10 != 9 {
			want-- // deleted its own plain doc
		}
	}
	want *= workers
	if s.Len() != want {
		t.Fatalf("len = %d, want %d", s.Len(), want)
	}
}

// TestWindowPutThenDeleteSameID drives commitWindow directly with a window
// that puts then deletes the same id, plus a delete of a missing id: the
// delete must observe the put sequenced before it inside the same window,
// and the missing-id delete must come back ErrNotFound without a record.
func TestWindowPutThenDeleteSameID(t *testing.T) {
	for _, dir := range []string{t.TempDir(), ""} { // durable, in-memory
		testWindowPutThenDeleteSameID(t, Options{Dir: dir, ConceptDim: 4, Seed: 1, SyncEveryPut: true})
	}
}

func testWindowPutThenDeleteSameID(t *testing.T, opts Options) {
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mk := func(ops []stagedOp) *commitReq {
		return &commitReq{ops: ops, at: time.Now(), done: make(chan struct{})}
	}
	d := doc("x", "t", "b", 1, nil)
	put := mk([]stagedOp{{op: opPut, payload: d.marshal(), doc: d.Clone(), tokens: d.Tokens()}})
	del := mk([]stagedOp{{op: opDelete, payload: []byte("x"), id: "x"}})
	delMissing := mk([]stagedOp{{op: opDelete, payload: []byte("ghost"), id: "ghost"}})
	s.commitWindow([]*commitReq{put, del, delMissing})
	if put.err != nil || del.err != nil {
		t.Fatalf("in-window put/delete errs: %v %v", put.err, del.err)
	}
	if !errors.Is(delMissing.err, ErrNotFound) {
		t.Fatalf("missing-id delete = %v, want ErrNotFound", delMissing.err)
	}
	if _, err := s.Get("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("x should be deleted by the same window, got %v", err)
	}
}

// TestCompactCrashBetweenSwaps emulates a crash after the snapshot rename
// but before the WAL rewrite: recovery then replays the FULL old WAL over
// the new snapshot file. That replay is a fixed point (for every id the
// last logged op matches the snapshot), so the store must converge to
// identical contents.
func TestCompactCrashBetweenSwaps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1, SyncEveryPut: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.Put(doc(fmt.Sprintf("d%02d", i%10), "t", fmt.Sprintf("version %d", i), int64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("d03"); err != nil {
		t.Fatal(err)
	}
	// Preserve the full pre-compaction WAL — the "old" file a crash
	// would leave behind.
	_, walPath := snapshotPaths(dir)
	oldWAL := filepath.Join(t.TempDir(), "old.wal")
	copyFile(t, walPath, oldWAL)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reinstate the old WAL next to the new snapshot: the crash window.
	copyFile(t, oldWAL, walPath)

	r, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1})
	if err != nil {
		t.Fatalf("recovery in the compaction crash window: %v", err)
	}
	defer r.Close()
	if r.Len() != 9 {
		t.Fatalf("len = %d, want 9 (10 ids minus one delete)", r.Len())
	}
	if _, err := r.Get("d03"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted doc resurrected: %v", err)
	}
	for _, id := range []string{"d00", "d09"} {
		d, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		// The LAST version logged for the id must win.
		want := map[string]string{"d00": "version 20", "d09": "version 29"}[id]
		if d.Text != want {
			t.Fatalf("%s = %q, want %q", id, d.Text, want)
		}
	}
}

// TestPutBatchSemantics pins batch behaviour on both store flavours:
// visibility on return, in-order supersede of duplicate ids, empty-id
// rejection before anything commits, and nil for the empty batch.
func TestPutBatchSemantics(t *testing.T) {
	for _, durable := range []bool{true, false} {
		name := "in-memory"
		opts := Options{ConceptDim: 4, Seed: 1}
		if durable {
			name = "durable"
			opts.Dir = t.TempDir()
			opts.SyncEveryPut = true
		}
		t.Run(name, func(t *testing.T) {
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.PutBatch(nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
			batch := []*Document{
				doc("a", "first", "b", 1, nil),
				doc("b", "second", "b", 2, nil),
				doc("a", "first revised", "b", 3, nil),
			}
			if err := s.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
			if s.Len() != 2 {
				t.Fatalf("len = %d, want 2", s.Len())
			}
			if d, _ := s.Get("a"); d == nil || d.Title != "first revised" {
				t.Fatalf("later duplicate must win: %+v", d)
			}
			before := s.Len()
			err = s.PutBatch([]*Document{doc("c", "t", "b", 4, nil), doc("", "bad", "b", 5, nil)})
			if !errors.Is(err, ErrEmptyID) {
				t.Fatalf("empty id in batch = %v, want ErrEmptyID", err)
			}
			if s.Len() != before {
				t.Fatal("failed batch must not commit anything")
			}
			if durable {
				// Batch must survive reopen.
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				r, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if r.Len() != 2 {
					t.Fatalf("replayed len = %d, want 2", r.Len())
				}
			}
		})
	}
}

// TestCompactConcurrentWithWrites keeps writers flowing while compaction
// cycles run both automatically (tiny CompactAfterBytes) and manually, then
// verifies nothing acked was lost across a reopen.
func TestCompactConcurrentWithWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1, SyncEveryPut: true, CompactAfterBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const perWriter = 60
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Put(doc(fmt.Sprintf("w%d-%03d", w, i), "t", "a body long enough to trip compaction regularly", int64(i), nil)); err != nil {
					t.Error(err)
					return
				}
				if i%20 == 19 {
					if err := s.Compact(); err != nil && !errors.Is(err, ErrClosed) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: dir, ConceptDim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != writers*perWriter {
		t.Fatalf("len = %d, want %d", r.Len(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if _, err := r.Get(fmt.Sprintf("w%d-%03d", w, i)); err != nil {
				t.Fatalf("lost w%d-%03d across compaction: %v", w, i, err)
			}
		}
	}
}

// commitOps commits ops as one request in a window of its own, the way
// submit does for a writer — the only way to put a delete inside a batch.
func commitOps(s *Store, ops ...stagedOp) error {
	req := &commitReq{ops: ops, at: time.Now(), done: make(chan struct{})}
	s.commitWindow([]*commitReq{req})
	return req.err
}

// TestWindowReleasesStagedRecords: a window drops each op's marshalled record
// once it is logged and its tokens once they are folded, freeze or not — the
// writer still holds the ops while it waits, and a bulk load's freeze must not
// run with the whole batch's records and tokens reachable beside the base it
// builds (that was a third of the heap there, and the benchmark's peak RSS
// swung by 90 MB with where the collector met it).
func TestWindowReleasesStagedRecords(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), ConceptDim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, n := range []int{4, 600} { // an overlay window, then one that overflows into a freeze
		ops := make([]stagedOp, n)
		for i := range ops {
			d := doc(fmt.Sprintf("r%d-%d", n, i), "gold ring", "a ring of gold", int64(i), nil)
			ops[i] = stagedOp{op: opPut, payload: d.marshal(), doc: d, tokens: d.Tokens()}
		}
		if err := commitOps(s, ops...); err != nil {
			t.Fatal(err)
		}
		if froze := s.snap.Load().ov.ops == 0; froze != (n == 600) {
			t.Fatalf("window of %d: froze = %v", n, froze)
		}
		for i := range ops {
			if ops[i].payload != nil || ops[i].tokens != nil {
				t.Fatalf("window of %d: op %d still holds its record (%d bytes) or tokens (%d)", n, i, len(ops[i].payload), len(ops[i].tokens))
			}
		}
	}
	if got := s.SearchText("gold", 3); len(got) != 3 {
		t.Fatalf("search after the windows: %d hits", len(got))
	}
}

// TestWritePathEquivalence is the one-write-path contract: the same scripted
// op sequence against an in-memory and a durable store yields, op for op, the
// same error and the same epoch (a batch is ONE epoch on both), and the same
// contents at the end. Dir decides where bytes go, never what a write means.
func TestWritePathEquivalence(t *testing.T) {
	type step struct {
		name string
		run  func(s *Store) error
	}
	mkDoc := func(id string, i int) *Document {
		v := shadowVocab
		return doc(id, v[i%len(v)]+" "+v[(i*7+1)%len(v)], v[(i*5+2)%len(v)]+" "+v[(i*3)%len(v)]+" ring", int64(i), nil)
	}
	ids := map[string]bool{}
	put := func(id string, i int) step {
		ids[id] = true
		return step{"put " + id, func(s *Store) error { return s.Put(mkDoc(id, i)) }}
	}
	del := func(id string) step {
		return step{"delete " + id, func(s *Store) error { return s.Delete(id) }}
	}
	batch := func(i int, batchIDs ...string) step {
		for _, id := range batchIDs {
			ids[id] = true
		}
		return step{fmt.Sprintf("batch %v", batchIDs), func(s *Store) error {
			docs := make([]*Document, len(batchIDs))
			for j, id := range batchIDs {
				docs[j] = mkDoc(id, i+j)
			}
			return s.PutBatch(docs)
		}}
	}
	steps := []step{
		put("a", 1), put("b", 2), put("c", 3),
		put("a", 4),             // replace
		del("b"),                // live
		del("b"),                // dead: ErrNotFound
		del("ghost"),            // never existed: ErrNotFound
		batch(5, "d", "e", "d"), // duplicate id: later wins, one epoch
		batch(8, "", "f"),       // ErrEmptyID, nothing committed, no epoch
		{"put x then delete x in one batch", func(s *Store) error {
			d := mkDoc("x", 9)
			return commitOps(s,
				stagedOp{op: opPut, payload: d.marshal(), doc: d, tokens: d.Tokens()},
				stagedOp{op: opDelete, payload: []byte("x"), id: "x"})
		}},
		{"delete ghost inside a batch", func(s *Store) error {
			d := mkDoc("g", 10)
			return commitOps(s,
				stagedOp{op: opDelete, payload: []byte("ghost"), id: "ghost"},
				stagedOp{op: opPut, payload: d.marshal(), doc: d, tokens: d.Tokens()})
		}},
	}
	ids["x"], ids["g"] = true, true
	// Enough single and batched ops to cross overlayLimit (64 at this size)
	// more than twice, with replaces and deletes of live and dead ids mixed in.
	for i := 0; i < 180; i++ {
		id := fmt.Sprintf("n%03d", i%120) // wraps: the tail replaces
		switch {
		case i%10 == 9:
			steps = append(steps, batch(100+i, id, id+"-b", id+"-c", id))
		case i%7 == 3:
			steps = append(steps, del(fmt.Sprintf("n%03d", (i*3)%120))) // some live, some dead
		default:
			steps = append(steps, put(id, 100+i))
		}
	}

	mem, err := Open(Options{ConceptDim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dur, err := Open(Options{Dir: t.TempDir(), ConceptDim: 4, Seed: 1, SyncEveryPut: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	for i, st := range steps {
		me, de := st.run(mem), st.run(dur)
		if me != de {
			t.Fatalf("step %d (%s): in-memory err %v, durable err %v", i, st.name, me, de)
		}
		if mem.Epoch() != dur.Epoch() {
			t.Fatalf("step %d (%s): in-memory epoch %d, durable epoch %d", i, st.name, mem.Epoch(), dur.Epoch())
		}
	}
	if ms, ds := mem.Stats(), dur.Stats(); mem.Len() != dur.Len() || ms.Puts != ds.Puts || ms.Deletes != ds.Deletes {
		t.Fatalf("len/puts/deletes: in-memory %d/%d/%d, durable %d/%d/%d",
			mem.Len(), ms.Puts, ms.Deletes, dur.Len(), ds.Puts, ds.Deletes)
	}
	for id := range ids {
		md, me := mem.Get(id)
		dd, de := dur.Get(id)
		if errors.Is(me, ErrNotFound) != errors.Is(de, ErrNotFound) || (md != nil && md.Title != dd.Title) {
			t.Fatalf("get %q: in-memory (%v, %v), durable (%v, %v)", id, md, me, dd, de)
		}
	}
	for _, q := range []string{"ring", "gold", "byzantine amber", "jade coin mosaic"} {
		if mh, dh := mem.SearchTextExhaustive(q, 10), dur.SearchTextExhaustive(q, 10); !hitsEqual(mh, dh) {
			t.Fatalf("search %q: in-memory %v, durable %v", q, hitIDs(mh), hitIDs(dh))
		}
	}
	if mf, df := docIDs(mem.Freshest(25)), docIDs(dur.Freshest(25)); !strsEqual(mf, df) {
		t.Fatalf("freshest: in-memory %v, durable %v", mf, df)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	if me, de := mem.Put(mkDoc("late", 1)), dur.Put(mkDoc("late", 1)); me != ErrClosed || de != ErrClosed {
		t.Fatalf("put after close: in-memory %v, durable %v, want ErrClosed", me, de)
	}
}

// TestInMemoryBatchIsAtomic: a reader racing in-memory PutBatch calls only
// ever sees whole batches — the batch is one published epoch, as on a
// durable store, not one epoch per document.
func TestInMemoryBatchIsAtomic(t *testing.T) {
	s := memStore(t)
	const batchSize, batches = 16, 60
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := s.Len(); n%batchSize != 0 {
				t.Errorf("reader saw %d docs: a batch of %d half-applied", n, batchSize)
				return
			}
			runtime.Gosched()
		}
	}()
	for b := 0; b < batches; b++ {
		docs := make([]*Document, batchSize)
		for i := range docs {
			docs[i] = doc(fmt.Sprintf("b%d-%d", b, i), "t", "body", int64(b), nil)
		}
		if err := s.PutBatch(docs); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
}

// TestCommitQueueAndCompactGauges reads the two stall gauges the way an
// operator does, off the Prometheus exposition. With Store.mu held the
// committer sits in its first window while three more requests queue behind
// it and a compaction waits for its pin: in_flight reads 1; once released,
// the second window starts with all three waiting, and the compaction ends.
func TestCommitQueueAndCompactGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Open(Options{Dir: t.TempDir(), ConceptDim: 4, Seed: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gauge := func(name string) float64 {
		t.Helper()
		var sb strings.Builder
		reg.RenderPrometheus(&sb)
		fams, err := telemetry.ParsePrometheus(sb.String())
		if err != nil {
			t.Fatal(err)
		}
		f := fams[name]
		if f == nil || f.Type != "gauge" || len(f.Samples) != 1 {
			t.Fatalf("%s: %+v", name, f)
		}
		return f.Samples[0].Value
	}
	const depth, inFlight = "agora_docstore_commit_queue_depth", "agora_docstore_compact_in_flight"
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	if gauge(depth) != 0 || gauge(inFlight) != 0 {
		t.Fatalf("idle store: queue_depth %v, in_flight %v", gauge(depth), gauge(inFlight))
	}

	s.mu.Lock()
	var wg sync.WaitGroup
	put := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(doc(fmt.Sprintf("g%d", i), "t", "b", int64(i), nil)); err != nil {
				t.Error(err)
			}
		}()
	}
	put(0)
	await("the committer to start its first window", func() bool { return gauge(depth) == 1 })
	for i := 1; i <= 3; i++ {
		put(i)
	}
	await("three requests to queue", func() bool { return len(s.commits) == 3 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Compact(); err != nil {
			t.Error(err)
		}
	}()
	await("the compaction to start", func() bool { return gauge(inFlight) == 1 })
	s.mu.Unlock()
	wg.Wait()
	if gauge(depth) != 3 || gauge(inFlight) != 0 {
		t.Fatalf("after the burst: queue_depth %v (want 3), in_flight %v (want 0)", gauge(depth), gauge(inFlight))
	}

	// The two windows each published an overlay and neither froze: one
	// observation apiece in the publish histogram, none in the freeze and
	// merge ones, no document rewritten, no segment yet.
	var sb strings.Builder
	reg.RenderPrometheus(&sb)
	fams, err := telemetry.ParsePrometheus(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if gauge("agora_docstore_segments") != 0 {
		t.Fatalf("segments = %v before any freeze", gauge("agora_docstore_segments"))
	}
	if f := fams["agora_docstore_merge_docs_total"]; f == nil || f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 0 {
		t.Fatalf("agora_docstore_merge_docs_total: %+v", f)
	}
	for name, want := range map[string]float64{
		"agora_docstore_publish_latency_seconds": 2, "agora_docstore_freeze_latency_seconds": 0, "agora_docstore_merge_latency_seconds": 0,
	} {
		f := fams[name]
		if f == nil || f.Type != "histogram" {
			t.Fatalf("%s: %+v", name, f)
		}
		i := slices.IndexFunc(f.Samples, func(sm telemetry.PromSample) bool { return sm.Name == name+"_count" })
		if i < 0 {
			t.Fatalf("%s has no _count sample", name)
		}
		if got := f.Samples[i].Value; got != want {
			t.Fatalf("%s_count = %v, want %v", name, got, want)
		}
	}
}

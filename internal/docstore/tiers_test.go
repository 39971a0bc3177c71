package docstore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/telemetry"
)

// tierOps is how a test applies the writes of tierSchedule: each call makes
// the write on the store and in the test's own model, then checks what the
// test checks. shaped is called where the segment list has the shape the
// schedule is for.
type tierOps struct {
	put    func(stage string, d *Document)
	del    func(stage, id string)
	batch  func(stage string, docs []*Document)
	shaped func(stage string, sn *snapshot)
}

// tierSchedule drives a store that must be empty through the states a
// segment list has: three segments of falling size, so that no tier merge is
// due; a document of every tier replaced and one deleted, each a window of
// its own, until a batch takes in the small segments those left (four
// segments, tombstones in each of the first three), and again over those four
// (five segments, tombstones in four); a segment more than deadShare dead,
// merged into the newest across one that stays; and a tier merge that takes
// every segment but the first. It fails the test when the store does not
// pass through those shapes.
func tierSchedule(t *testing.T, s *Store, r *rand.Rand, ops tierOps) {
	t.Helper()
	if s.Len() != 0 {
		t.Fatal("tierSchedule wants an empty store")
	}
	gen := func(prefix string, n int) []*Document {
		docs := make([]*Document, n)
		for i := range docs {
			docs[i] = shadowDoc(r, fmt.Sprintf("%s%03d", prefix, i), int64(r.Intn(30)))
		}
		return docs
	}
	shape := func(stage string, want ...int) *snapshot {
		t.Helper()
		sn := s.snap.Load()
		var got []int
		for _, seg := range sn.segs {
			got = append(got, seg.live())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: segments hold %v live documents, want %v", stage, got, want)
		}
		return sn
	}
	// Every tier touched: one document replaced, one deleted.
	touch := func(stage string, n int, prefixes ...string) {
		for _, p := range prefixes {
			ops.put(fmt.Sprintf("%s: replace %s%03d", stage, p, n), shadowDoc(r, fmt.Sprintf("%s%03d", p, n), int64(r.Intn(30))))
			ops.del(fmt.Sprintf("%s: delete %s%03d", stage, p, n+1), fmt.Sprintf("%s%03d", p, n+1))
		}
	}

	ops.batch("tier a", gen("ta", 400))
	ops.batch("tier b", gen("tb", 140))
	ops.batch("tier c", gen("tc", 80))
	shape("three tiers", 400, 140, 80)

	touch("single windows", 5, "ta", "tb", "tc")
	ops.put("a new id", shadowDoc(r, "tn000", 7))
	// The 3 replaced + 1 new, merged in tiers as they came, and 58 more make
	// a segment of 62, too small for the 78 left of tier c to join it.
	ops.batch("a batch over the touches", gen("td", 58))
	sn := shape("tombstones folded", 398, 138, 78, 62)
	for si, seg := range sn.segs[:3] {
		if len(seg.dead) != 2 || seg.deadDF == nil {
			t.Fatalf("segment %d has %d tombstones after the fold, want 2", si, len(seg.dead))
		}
	}
	ops.shaped("four segments, tombstones in three", sn)

	touch("over four segments", 9, "ta", "tb", "tc", "td")
	ops.shaped("five segments, tombstones in four", shape("five segments", 396, 136, 76, 60, 4))

	// Tier c loses 40 more. The delete that leaves 41 of its 80 dead merges
	// its 39 live documents with the 4 written since into the newest segment;
	// tier d, between them and larger than those 4, stays. Three more deletes
	// fall on the merged segment, and a batch of 17 comes after it.
	tierC, tierD := sn.segs[2].cx, sn.segs[3].cx
	for i := 20; i < 60; i++ {
		ops.del(fmt.Sprintf("emptying tier c: %d", i), fmt.Sprintf("tc%03d", i))
	}
	ops.batch("a batch after the dead-share merge", gen("te", 17))
	sn = shape("dead-share merge", 396, 136, 60, 39+4-3, 17)
	if held := func(cx *compiledIndex) bool {
		return slices.ContainsFunc(sn.segs, func(seg *segment) bool { return seg.cx == cx })
	}; held(tierC) || !held(tierD) {
		t.Fatalf("after the dead-share merge tier c's index is held: %v, tier d's: %v; want it gone and tier d's kept", held(tierC), held(tierD))
	}
	ops.shaped("after the dead-share merge", sn)

	// 66 new documents: the newest four segments are each no larger than
	// what is gathered behind them, the first is larger than all of it.
	ops.batch("a batch into a tier merge", gen("tf", 66))
	ops.shaped("after the tier merge", shape("tier merge", 396, 136+60+40+17+66))
	touch("two segments", 13, "ta", "tb", "td", "tf")
}

// TestWriteAmplificationIsLogarithmic pins what the tiers are for, in counts:
// N single-document windows, each compiled into a segment, into a
// 16k-document store rewrite, between them, at most log₂(base/window)
// documents per document written — a segment of s documents is merged only
// into one of at least 2s, which cannot happen more often than that — and
// never leave more than that many segments, plus the newest two. A store that
// merged everything at every window would rewrite base/window = 16384
// documents per write.
func TestWriteAmplificationIsLogarithmic(t *testing.T) {
	const base, writes, window = 16384, 4096, 1
	reg := telemetry.NewRegistry()
	s, err := Open(Options{ConceptDim: 8, Seed: 7, QueryCacheSize: -1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	bulk := make([]*Document, base)
	for i := range bulk {
		bulk[i] = shadowDoc(r, fmt.Sprintf("b%05d", i), int64(i))
	}
	if err := s.PutBatch(bulk); err != nil {
		t.Fatal(err)
	}
	bound := math.Log2(base / window)
	maxSegs := 0
	for i := 0; i < writes; i++ {
		// Three in four are new ids, one replaces a base document.
		id := fmt.Sprintf("w%05d", i)
		if i%4 == 3 {
			id = fmt.Sprintf("b%05d", r.Intn(base))
		}
		if err := s.Put(shadowDoc(r, id, int64(base+i))); err != nil {
			t.Fatal(err)
		}
		maxSegs = max(maxSegs, len(s.snap.Load().segs))
	}
	snap := reg.Snapshot()
	freezes, merged := snap.Counters["docstore.snapshot.freezes"], snap.Counters["docstore.merge.docs"]
	if want := uint64(writes / window); freezes < want-1 || freezes > want+1 {
		t.Fatalf("%d freezes for %d single writes, want %d", freezes, writes, want)
	}
	if amp := float64(merged) / writes; amp == 0 || amp > bound {
		t.Fatalf("merges rewrote %d documents for %d written: %.2f each, want above 0 and at most log₂(%d/%d) = %.0f", merged, writes, amp, base, window, bound)
	}
	if float64(maxSegs) > bound+2 {
		t.Fatalf("up to %d segments, want at most %.0f", maxSegs, bound+2)
	}
	if got := snap.Gauges["docstore.segments"]; got != float64(len(s.snap.Load().segs)) {
		t.Fatalf("docstore.segments reads %v with %d segments published", got, len(s.snap.Load().segs))
	}
	if h := snap.Histograms["docstore.merge.latency"]; h.Count == 0 || h.Count > freezes {
		t.Fatalf("%d merges timed for %d freezes", h.Count, freezes)
	}
}

// TestSegmentIDsAscend pins the invariant scoredBetter's tie rule relies on:
// in every segment a store publishes, cx.ids strictly ascends, so ordinals
// order as ids do. It is checked after each commit window of tierSchedule
// (its tier merges among them) and of a batch written out of id order, after
// a reopen that replays the whole log, after Compact and a reopen from the
// v2 file, and after a reopen that replays a log written since.
func TestSegmentIDsAscend(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	ascend := func(stage string) {
		t.Helper()
		for si, seg := range s.snap.Load().segs {
			for i, ids := 1, seg.cx.ids; i < len(ids); i++ {
				if ids[i-1] >= ids[i] {
					t.Fatalf("%s: segment %d has %q at %d before %q", stage, si, ids[i-1], i-1, ids[i])
				}
			}
		}
	}
	must := func(stage string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		ascend(stage)
	}
	reopen := func(stage string) {
		t.Helper()
		must(stage+": close", s.Close())
		s = open()
		ascend(stage)
	}
	r := rand.New(rand.NewSource(40))
	tierSchedule(t, s, r, tierOps{
		put:    func(stage string, d *Document) { must(stage, s.Put(d)) },
		del:    func(stage, id string) { must(stage, s.Delete(id)) },
		batch:  func(stage string, docs []*Document) { must(stage, s.PutBatch(docs)) },
		shaped: func(stage string, _ *snapshot) { ascend(stage) },
	})
	shuffled := make([]*Document, 50)
	for i, n := range r.Perm(len(shuffled)) {
		shuffled[i] = shadowDoc(r, fmt.Sprintf("tb%03d", 3*n), int64(r.Intn(30)))
	}
	must("a batch out of id order", s.PutBatch(shuffled))
	snapPath, _ := snapshotPaths(dir)
	if _, err := os.Stat(snapPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a snapshot file before Compact: %v", err)
	}
	reopen("a reopen replaying the log")
	must("compact", s.Compact())
	reopen("a reopen from the v2 file")
	for i := 0; i < 20; i++ {
		must("a put after the compaction", s.Put(shadowDoc(r, fmt.Sprintf("tg%03d", r.Intn(500)), int64(i))))
	}
	must("a delete after the compaction", s.Delete("ta100"))
	reopen("a reopen replaying the log written since")
	must("close", s.Close())
}

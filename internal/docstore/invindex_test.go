package docstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
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
	case !reflect.DeepEqual(got.terms, want.terms):
		t.Fatalf("%s: term postings (df, block ranges, bounds) differ", stage)
	case !reflect.DeepEqual(got.blocks, want.blocks):
		t.Fatalf("%s: block directories differ", stage)
	case !bytes.Equal(got.data, want.data):
		t.Fatalf("%s: encoded postings differ", stage)
	case !reflect.DeepEqual(got.fwd, want.fwd):
		t.Fatalf("%s: forward indexes differ", stage)
	}
}

// TestInvIndexNumberRecycling: the write-side index files postings under
// document numbers that are handed back on delete and reused by the next
// add. Whatever numbers a churn of puts, replaces and deletes leaves the
// live documents under, the compiled index must equal a fresh build of the
// same live set — and a v2 snapshot of it must load back to the same index.
func TestInvIndexNumberRecycling(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	opts := Options{ConceptDim: 8, LSHTables: 2, LSHBits: 4, Seed: 1}
	churned := newState(opts)
	inserts, maxLive := 0, 0
	for step := 0; step < 2000; step++ {
		id := fmt.Sprintf("n%02d", r.Intn(60))
		if r.Intn(3) == 0 {
			churned.applyDelete(id)
		} else {
			d := shadowDoc(r, id, int64(step))
			churned.applyPut(d, d.Tokens())
			inserts++
		}
		maxLive = max(maxLive, len(churned.docs))
	}
	inv := churned.inv
	if len(inv.num) != len(churned.docs) || len(inv.docLen) != len(inv.num)+len(inv.free) {
		t.Fatalf("number bookkeeping: %d docs, %d numbered, %d slots, %d free", len(churned.docs), len(inv.num), len(inv.docLen), len(inv.free))
	}
	if len(inv.docLen) > maxLive || inserts <= len(inv.docLen) {
		t.Fatalf("numbers were not recycled: %d slots after %d inserts, at most %d live at once", len(inv.docLen), inserts, maxLive)
	}
	taken := make(map[uint32]string, len(inv.num))
	for id, n := range inv.num {
		if other, dup := taken[n]; dup {
			t.Fatalf("documents %q and %q share number %d", id, other, n)
		}
		taken[n] = id
	}

	// A fresh build numbers the same live set 0..n-1 in ID order.
	fresh := newState(opts)
	ids := make([]string, 0, len(churned.docs))
	for id := range churned.docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		d := churned.docs[id]
		fresh.applyPut(d, d.Tokens())
	}
	got, want := compileIndex(churned.inv, churned.docs), compileIndex(fresh.inv, fresh.docs)
	requireSameIndex(t, "churned vs fresh", got, want)

	// Round trip: the snapshot written from the churned index loads into a
	// master whose compile is the same index again.
	var buf bytes.Buffer
	if err := writeSnapshotV2(&buf, got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded := newState(opts)
	if ok, err := loadSnapshotFile(path, loaded); err != nil || !ok {
		t.Fatalf("loading the snapshot: ok=%v err=%v", ok, err)
	}
	requireSameIndex(t, "snapshot round trip", compileIndex(loaded.inv, loaded.docs), want)

	// The compactor's merge takes the third way in: it numbers the live
	// set itself, from a compiled base plus an overlay.
	ov := (&overlay{}).cloneNextN(2)
	base := &state{docs: churned.docs, cx: got}
	ov.deleteDoc(ids[0], base)
	repl := shadowDoc(r, ids[1], 9000)
	ov.putDoc(repl, repl.Tokens(), nil, base)
	fresh.applyDelete(ids[0])
	fresh.applyPut(repl, repl.Tokens())
	merged := mergeLiveSet(&snapshot{base: base, ov: ov, docCount: len(fresh.docs)})
	requireSameIndex(t, "mergeLiveSet", merged, compileIndex(fresh.inv, fresh.docs))
}

package feature

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func randomUnit(r *rand.Rand, dim int) Vector {
	v := make(Vector, dim)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v.Normalize()
}

func TestLSHFindsNearDuplicate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	l := NewLSH(1, 32, 8, 10)
	base := randomUnit(r, 32)
	l.Put("target", base)
	for i := 0; i < 200; i++ {
		l.Put(fmt.Sprintf("noise%d", i), randomUnit(r, 32))
	}
	// Query with a slightly perturbed copy.
	q := base.Clone()
	for i := range q {
		q[i] += r.NormFloat64() * 0.05
	}
	q.Normalize()
	got := l.Query(q, 5)
	if len(got) == 0 || got[0].ID != "target" {
		t.Fatalf("near-duplicate not top hit: %v", got)
	}
}

func TestLSHRecallVsScan(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	l := NewLSH(2, 16, 12, 8)
	for i := 0; i < 500; i++ {
		l.Put(fmt.Sprintf("d%d", i), randomUnit(r, 16))
	}
	hits := 0
	trials := 30
	for i := 0; i < trials; i++ {
		q := randomUnit(r, 16)
		truth := l.Scan(q, 10)
		approx := l.Query(q, 10)
		truthSet := make(map[string]bool)
		for _, c := range truth {
			truthSet[c.ID] = true
		}
		for _, c := range approx {
			if truthSet[c.ID] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(trials*10)
	if recall < 0.4 {
		t.Fatalf("LSH recall@10 too low: %.2f", recall)
	}
}

func TestLSHDeleteAndReplace(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	l := NewLSH(3, 8, 4, 6)
	v := randomUnit(r, 8)
	l.Put("a", v)
	if l.Len() != 1 {
		t.Fatalf("len = %d", l.Len())
	}
	// Replace with a different vector; old buckets must be cleaned.
	w := randomUnit(r, 8)
	l.Put("a", w)
	if l.Len() != 1 {
		t.Fatalf("replace changed len: %d", l.Len())
	}
	got := l.Scan(w, 1)
	if len(got) != 1 || !almostEq(got[0].Score, 1, 1e-9) {
		t.Fatalf("replaced vector not found: %v", got)
	}
	if !l.Delete("a") {
		t.Fatal("delete should report true")
	}
	if l.Delete("a") {
		t.Fatal("double delete should report false")
	}
	if l.Len() != 0 {
		t.Fatalf("len after delete = %d", l.Len())
	}
	if got := l.Query(w, 5); len(got) != 0 {
		t.Fatalf("deleted item still returned: %v", got)
	}
}

func TestLSHQueryDeterministicOrder(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	l := NewLSH(4, 8, 6, 6)
	for i := 0; i < 100; i++ {
		l.Put(fmt.Sprintf("d%02d", i), randomUnit(r, 8))
	}
	q := randomUnit(r, 8)
	a := l.Query(q, 10)
	b := l.Query(q, 10)
	if len(a) != len(b) {
		t.Fatal("nondeterministic result size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d", i)
		}
	}
}

func TestLSHPutIsCopy(t *testing.T) {
	l := NewLSH(5, 4, 2, 4)
	v := Vector{1, 0, 0, 0}
	l.Put("a", v)
	v[0] = -1 // mutate caller's slice
	got := l.Scan(Vector{1, 0, 0, 0}, 1)
	if len(got) != 1 || !almostEq(got[0].Score, 1, 1e-9) {
		t.Fatal("index must store a copy of the vector")
	}
}

// TestLSHSelectsWhileScanning: Query and Scan keep the best k in a heap as
// they score; that must be the head of the full ranking (k < 0), ties on the
// score broken by id, for every k.
func TestLSHSelectsWhileScanning(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	l := NewLSH(6, 8, 6, 4)
	twin := randomUnit(r, 8)
	for i := 0; i < 300; i++ {
		v := randomUnit(r, 8)
		if i%5 == 0 {
			v = twin // equal scores: the id decides
		}
		l.Put(fmt.Sprintf("d%03d", i), v)
	}
	q := randomUnit(r, 8)
	for name, search := range map[string]func(Vector, int) []Candidate{"Query": l.Query, "Scan": l.Scan} {
		all := search(q, -1)
		if name == "Scan" && len(all) != 300 {
			t.Fatalf("Scan ranked %d of 300", len(all))
		}
		for i := 1; i < len(all); i++ {
			if !candWorse(all[i], all[i-1]) {
				t.Fatalf("%s: %v ranked before %v", name, all[i-1], all[i])
			}
		}
		for _, k := range []int{0, 1, 7, len(all) - 1, len(all), len(all) + 9} {
			got, want := search(q, k), all[:min(k, len(all))]
			if len(got) != len(want) {
				t.Fatalf("%s(k=%d): %d candidates, want %d", name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s(k=%d): candidate %d is %v, want %v", name, k, i, got[i], want[i])
				}
			}
		}
	}
}

// buckets flattens an index's tables into "table/signature" -> sorted ids.
func buckets(l *LSH) map[string][]string {
	out := map[string][]string{}
	for t, tbl := range l.tables {
		for sig, ids := range tbl {
			ids = slices.Clone(ids)
			slices.Sort(ids)
			out[fmt.Sprintf("%d/%x", t, sig)] = ids
		}
	}
	return out
}

// TestLSHFilledIsInsertPerItem: the index Filled builds in one pass files
// exactly what an Insert per item files (a vector signed as the original signs
// it; an empty vector is no item), so a split of a set over the two files,
// bucket by bucket, what one index holding all of it does; answers every
// Query the same; and shares no bucket storage with the original or between
// its own buckets — an Insert into either changes only the bucket it lands in.
func TestLSHFilledIsInsertPerItem(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	l := NewLSH(3, 16, 6, 4) // 16 buckets a table: every bucket is crowded
	whole, want := NewLSH(3, 16, 6, 4), NewLSH(3, 16, 6, 4)
	for i := 0; i < 200; i++ {
		v := randomUnit(r, 16)
		l.Put(fmt.Sprintf("d%03d", i), v)
		whole.Put(fmt.Sprintf("d%03d", i), v)
	}
	before := buckets(l)
	var ids []string
	var vecs []Vector
	var sigs []uint64
	for i := 200; i < 400; i++ {
		id, v := fmt.Sprintf("d%03d", i), randomUnit(r, 16)
		if i%10 == 0 {
			v = nil
		} else {
			want.Put(id, v)
			whole.Put(id, v)
		}
		ids, vecs, sigs = append(ids, id), append(vecs, v), l.AppendSignatures(sigs, v)
	}
	got := l.Filled(ids, vecs, sigs)
	if got.Len() != want.Len() || !reflect.DeepEqual(buckets(got), buckets(want)) {
		t.Fatalf("filled in one pass it holds %d ids, inserted one by one %d, or their buckets differ", got.Len(), want.Len())
	}
	for i := 0; i < 50; i++ {
		q := randomUnit(r, 16)
		if g, w := got.Query(q, 10), want.Query(q, 10); !reflect.DeepEqual(g, w) {
			t.Fatalf("query %d: filled %v, inserted %v", i, g, w)
		}
	}
	union := buckets(l)
	for key, b := range buckets(got) {
		union[key] = append(union[key], b...)
		slices.Sort(union[key])
	}
	if !reflect.DeepEqual(union, buckets(whole)) {
		t.Fatal("the two indexes' buckets, united, are not those of one index over both sets")
	}

	after := buckets(got)
	for i := 0; i < 100; i++ {
		id, v := fmt.Sprintf("new%d", i), randomUnit(r, 16)
		got.Put(id, v)
		for t, sig := range got.Signatures(v) {
			key := fmt.Sprintf("%d/%x", t, sig)
			after[key] = append(after[key], id)
			slices.Sort(after[key])
		}
	}
	if !reflect.DeepEqual(buckets(got), after) {
		t.Fatal("an Insert into the filled index changed a bucket other than its own")
	}
	if !reflect.DeepEqual(buckets(l), before) {
		t.Fatal("building or filling the new index changed the original")
	}
}

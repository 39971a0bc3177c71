package feature

import (
	"fmt"
	"math/rand"
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

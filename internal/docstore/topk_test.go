package docstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func newTopK[T any](k int, better func(a, b T) bool) *topK[T] {
	return &topK[T]{k: k, better: better}
}

// topkPush feeds items through a fresh topK and drains it.
func topkDrain(k int, items []scored) []scored {
	h := newTopK(k, scoredBetter)
	for _, it := range items {
		h.push(it)
	}
	return h.sorted()
}

// topkReference is the seed's sort-then-truncate: sort.Slice under the same
// strict total order, cut to k. The heap drain must emit exactly this.
func topkReference(k int, items []scored) []scored {
	ref := append([]scored(nil), items...)
	sort.Slice(ref, func(i, j int) bool { return scoredBetter(ref[i], ref[j]) })
	if k >= 0 && k < len(ref) {
		ref = ref[:k]
	}
	return ref
}

// TestTopKSortedMatchesSortSlice pins the heap-pop drain to the sort.Slice
// baseline it replaced: for random candidate sets — with duplicate scores,
// so the id tie-break carries the total order — every k (including
// unbounded and k > n) yields the identical best-first slice regardless of
// push order.
func TestTopKSortedMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(300)
		items := make([]scored, n)
		for i := range items {
			items[i] = scored{
				id: fmt.Sprintf("doc-%03d", r.Intn(1000)),
				// Coarse scores force ties; the id tie-break must decide.
				score: float64(r.Intn(12)) / 3,
			}
		}
		for _, k := range []int{-1, 0, 1, 2, 7, n / 2, n, n + 5} {
			got := topkDrain(k, items)
			want := topkReference(k, items)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: len %d, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d: item %d = %+v, want %+v", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTopKDrainInPlace pins the no-allocation property the scratch pool
// depends on: sorted() returns the heap's own backing array, not a copy.
func TestTopKDrainInPlace(t *testing.T) {
	h := newTopK(4, scoredBetter)
	for i := 0; i < 10; i++ {
		h.push(scored{id: fmt.Sprintf("d%d", i), score: float64(i)})
	}
	backing := h.items[:1]
	res := h.sorted()
	if len(res) != 4 {
		t.Fatalf("len = %d, want 4", len(res))
	}
	if &res[0] != &backing[0] {
		t.Fatal("sorted() did not drain in place")
	}
}

// BenchmarkTopKSorted measures the drain against the sort.Slice baseline on
// the hot-path shape: 10 kept of a few hundred candidates.
func BenchmarkTopKSorted(b *testing.B) {
	r := rand.New(rand.NewSource(23))
	items := make([]scored, 400)
	for i := range items {
		items[i] = scored{id: fmt.Sprintf("doc-%03d", i), score: r.Float64()}
	}
	b.Run("heap-drain", func(b *testing.B) {
		b.ReportAllocs()
		h := topK[scored]{k: 10, better: scoredBetter}
		for i := 0; i < b.N; i++ {
			h.items = h.items[:0]
			for _, it := range items {
				h.push(it)
			}
			h.items = h.sorted()
		}
	})
	b.Run("sort-slice", func(b *testing.B) {
		b.ReportAllocs()
		var buf []scored
		for i := 0; i < b.N; i++ {
			buf = append(buf[:0], items...)
			sort.Slice(buf, func(x, y int) bool { return scoredBetter(buf[x], buf[y]) })
			_ = buf[:10]
		}
	})
}

package docstore

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// topkDrain feeds items through a fresh topK and drains it.
func topkDrain(k int, items []scored) []scored {
	h := topK{k: k}
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
	h := topK{k: 4}
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

// requireSelects offers items to a selection of k and holds what it keeps,
// as a set, to topkReference — and its buffer to selectionSlack·k entries
// at every step.
func requireSelects(t *testing.T, what string, k int, items []scored) {
	t.Helper()
	sel := selection{k: k}
	for _, it := range items {
		sel.offer(it)
		if k >= 0 && len(sel.items) > selectionSlack*k {
			t.Fatalf("%s k=%d: buffer holds %d", what, k, len(sel.items))
		}
	}
	got := slices.Clone(sel.best())
	sort.Slice(got, func(i, j int) bool { return scoredBetter(got[i], got[j]) })
	want := topkReference(k, items)
	if !slices.Equal(got, want) {
		t.Fatalf("%s k=%d: kept %v, want %v", what, k, got, want)
	}
}

// TestSelectionMatchesReference holds the selection to sort-then-truncate
// over inputs long enough to cross the selectionSlack·k cut many times for
// the small k, with coarse scores so that ids decide most places — the k-th
// among them — offered in both orders, so a cut may fall on either side of
// a tie.
func TestSelectionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(2000)
		items := make([]scored, n)
		for i, id := range r.Perm(n) {
			items[i] = scored{id: fmt.Sprintf("doc-%04d", id), ord: int32(i), score: float64(r.Intn(8)) / 4}
		}
		reversed := slices.Clone(items)
		slices.Reverse(reversed)
		for _, k := range []int{-1, 0, 1, 2, 7, n / 2, n, n + 5} {
			requireSelects(t, fmt.Sprintf("trial %d, forward", trial), k, items)
			requireSelects(t, fmt.Sprintf("trial %d, reversed", trial), k, reversed)
		}
	}
}

// FuzzSelectBest decodes bytes into scored values — a score from one byte in
// eight steps, an id whose first part is the next byte and whose suffix only
// keeps ids unique — and holds both the selection and one selectBest call to
// sort-then-truncate.
func FuzzSelectBest(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(2), []byte{3, 1, 3, 0, 3, 2, 1, 9})
	f.Add(uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(4), []byte{7, 9, 6, 8, 5, 7, 4, 6, 3, 5, 2, 4, 1, 3, 0, 2, 7, 1})
	f.Add(uint8(0), []byte{1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		items := make([]scored, len(data)/2)
		for i := range items {
			items[i] = scored{id: fmt.Sprintf("%02x-%04d", data[2*i+1], i), score: float64(data[2*i]%8) / 4}
		}
		requireSelects(t, "fuzz", int(k), items)
		if kk := int(k); kk > 0 && kk <= len(items) {
			buf := slices.Clone(items)
			want := topkReference(kk, items)
			if selectBest(buf, kk); buf[kk-1] != want[kk-1] {
				t.Fatalf("selectBest left %+v at k-1, want %+v", buf[kk-1], want[kk-1])
			}
			got := buf[:kk]
			sort.Slice(got, func(i, j int) bool { return scoredBetter(got[i], got[j]) })
			if !slices.Equal(got, want) {
				t.Fatalf("selectBest kept %v, want %v", got, want)
			}
		}
	})
}

// BenchmarkTopKSorted measures the drain against the sort.Slice baseline on
// the text path's shape, 10 kept of a few hundred candidates, and the heap
// against the selection on a hybrid pool's, 400 kept of 1 000 (neither
// ranks).
func BenchmarkTopKSorted(b *testing.B) {
	r := rand.New(rand.NewSource(23))
	items := make([]scored, 1000)
	for i := range items {
		items[i] = scored{id: fmt.Sprintf("doc-%04d", i), score: r.Float64()}
	}
	b.Run("heap-drain", func(b *testing.B) {
		b.ReportAllocs()
		h := topK{k: 10}
		for i := 0; i < b.N; i++ {
			h.items = h.items[:0]
			for _, it := range items[:400] {
				h.push(it)
			}
			h.items = h.sorted()
		}
	})
	b.Run("sort-slice", func(b *testing.B) {
		b.ReportAllocs()
		var buf []scored
		for i := 0; i < b.N; i++ {
			buf = append(buf[:0], items[:400]...)
			sort.Slice(buf, func(x, y int) bool { return scoredBetter(buf[x], buf[y]) })
			_ = buf[:10]
		}
	})
	b.Run("pool-heap", func(b *testing.B) {
		b.ReportAllocs()
		h := topK{k: 400}
		for i := 0; i < b.N; i++ {
			h.items = h.items[:0]
			for _, it := range items {
				h.push(it)
			}
		}
	})
	b.Run("pool-selection", func(b *testing.B) {
		b.ReportAllocs()
		sel := selection{k: 400}
		for i := 0; i < b.N; i++ {
			sel = selection{k: 400, items: sel.items[:0]}
			for _, it := range items {
				sel.offer(it)
			}
			sel.best()
		}
	})
}

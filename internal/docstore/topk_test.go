package docstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
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

// idOrder is the ranking order as the ids define it — score desc, id asc —
// without the ordinal shortcut scoredBetter takes inside a segment: the
// reference the shortcut is held to.
func idOrder(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// dealSegments gives items, whose ids are unique, the (segment, ordinal)
// pairs a snapshot's hits carry: segment segOf(i) for item i, and within a
// segment ordinals that ascend with the ids, gaps and all, as they do over a
// segment's sorted cx.ids. A tie is then decided by ordinal inside a segment
// and by id across segments, so both of scoredBetter's paths run.
func dealSegments(items []scored, segOf func(i int) int32) {
	byID := make([]int, len(items))
	for i := range byID {
		byID[i] = i
	}
	sort.Slice(byID, func(x, y int) bool { return items[byID[x]].id < items[byID[y]].id })
	next := map[int32]uint32{}
	for n, i := range byID {
		seg := segOf(i)
		items[i].seg, items[i].ord = seg, next[seg]
		next[seg] += 1 + uint32(n%3)
	}
}

// topkReference is the seed's sort-then-truncate: sort.Slice under idOrder,
// cut to k. The heap drain must emit exactly this.
func topkReference(k int, items []scored) []scored {
	ref := append([]scored(nil), items...)
	sort.Slice(ref, func(i, j int) bool { return idOrder(ref[i], ref[j]) })
	if k >= 0 && k < len(ref) {
		ref = ref[:k]
	}
	return ref
}

// TestTopKSortedMatchesSortSlice pins the heap-pop drain to the sort.Slice
// baseline it replaced: for random candidate sets — with duplicate scores,
// so the tie-break carries the total order, by ordinal within each of three
// segments and by id across them — every k (including unbounded and k > n)
// yields the identical best-first slice regardless of push order.
func TestTopKSortedMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(300)
		items := make([]scored, n)
		for i, id := range r.Perm(1000)[:n] {
			items[i] = scored{
				id: fmt.Sprintf("doc-%03d", id),
				// Coarse scores force ties; the tie-break must decide.
				score: float64(r.Intn(12)) / 3,
			}
		}
		dealSegments(items, func(int) int32 { return int32(r.Intn(3)) })
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
		h.push(scored{id: fmt.Sprintf("d%d", i), ord: uint32(i), score: float64(i)})
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
	sort.Slice(got, func(i, j int) bool { return idOrder(got[i], got[j]) })
	want := topkReference(k, items)
	if !slices.Equal(got, want) {
		t.Fatalf("%s k=%d: kept %v, want %v", what, k, got, want)
	}
}

// TestSelectionMatchesReference holds the selection to sort-then-truncate
// over inputs long enough to cross the selectionSlack·k cut many times for
// the small k, with coarse scores so that the tie-break decides most places
// — the k-th among them — offered in both orders, so a cut may fall on either
// side of a tie.
func TestSelectionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(2000)
		items := make([]scored, n)
		for i, id := range r.Perm(n) {
			items[i] = scored{id: fmt.Sprintf("doc-%04d", id), score: float64(r.Intn(8)) / 4}
		}
		dealSegments(items, func(int) int32 { return int32(r.Intn(4)) })
		reversed := slices.Clone(items)
		slices.Reverse(reversed)
		for _, k := range []int{-1, 0, 1, 2, 7, n / 2, n, n + 5} {
			requireSelects(t, fmt.Sprintf("trial %d, forward", trial), k, items)
			requireSelects(t, fmt.Sprintf("trial %d, reversed", trial), k, reversed)
		}
	}
}

// FuzzSelectBest decodes bytes into scored values — a score from one byte's
// low three bits in eight steps and a segment out of three from the rest, an
// id whose first part is the next byte and whose suffix only keeps ids unique
// — and holds both the selection and one selectBest call to
// sort-then-truncate.
func FuzzSelectBest(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(2), []byte{3, 1, 3, 0, 3, 2, 1, 9})
	f.Add(uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(4), []byte{7, 9, 6, 8, 5, 7, 4, 6, 3, 5, 2, 4, 1, 3, 0, 2, 7, 1})
	f.Add(uint8(0), []byte{1, 2, 3, 4})
	f.Add(uint8(3), []byte{0, 5, 8, 5, 16, 4, 8, 4, 0, 3, 16, 3, 9, 2, 1, 2, 17, 1})

	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		items := make([]scored, len(data)/2)
		for i := range items {
			items[i] = scored{id: fmt.Sprintf("%02x-%04d", data[2*i+1], i), score: float64(data[2*i]%8) / 4}
		}
		dealSegments(items, func(i int) int32 { return int32(data[2*i]>>3) % 3 })
		requireSelects(t, "fuzz", int(k), items)
		if kk := int(k); kk > 0 && kk <= len(items) {
			buf := slices.Clone(items)
			want := topkReference(kk, items)
			if selectBest(buf, kk); buf[kk-1] != want[kk-1] {
				t.Fatalf("selectBest left %+v at k-1, want %+v", buf[kk-1], want[kk-1])
			}
			got := buf[:kk]
			sort.Slice(got, func(i, j int) bool { return idOrder(got[i], got[j]) })
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
		items[i] = scored{id: fmt.Sprintf("doc-%04d", i), ord: uint32(i), score: r.Float64()}
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

// requireKthBest holds kthBest to a sort of the cosines among xs — a NaN is
// a document that is no candidate — for every k, and to leaving its scores as
// it found them.
func requireKthBest(t *testing.T, what string, xs []float64) {
	t.Helper()
	want := slices.DeleteFunc(slices.Clone(xs), math.IsNaN)
	slices.Sort(want)
	slices.Reverse(want)
	before := slices.Clone(xs)
	for k := 1; k <= len(want); k++ {
		if got := kthBest(make([]float64, len(xs)), xs, k); got != want[k-1] {
			t.Fatalf("%s: kthBest(k = %d of %d) = %v, want %v", what, k, len(want), got, want[k-1])
		}
	}
	if !slices.EqualFunc(xs, before, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s: kthBest reordered its scores", what)
	}
}

// TestKthBestMatchesSort holds the vector pool's cut to a sort: on coarse
// scores, so that ties are everywhere, and on distinct ones; on ±1, 0 and
// −0, the ends and middle of the cosine range; on one value repeated, all of
// it one bucket; and on the bucket edges b/128 − 1 and their neighbours,
// where a rounding in the bucket map would put a score on the wrong side.
func TestKthBestMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		xs := make([]float64, 1+r.Intn(200))
		for i := range xs {
			if xs[i] = r.Float64()*2 - 1; trial%2 == 0 {
				xs[i] = float64(r.Intn(5)) / 4
			}
		}
		requireKthBest(t, fmt.Sprintf("trial %d", trial), xs)
	}
	specials := []float64{1, -1, 0, math.Copysign(0, -1)}
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 1+r.Intn(60))
		for i := range xs {
			xs[i] = specials[r.Intn(len(specials))]
		}
		requireKthBest(t, fmt.Sprintf("specials %d", trial), xs)
	}
	for _, v := range append(specials, 0.5, -0.3, 1.0/128-1) {
		xs := make([]float64, 150)
		for i := range xs {
			xs[i] = v
		}
		requireKthBest(t, fmt.Sprintf("%v repeated", v), xs)
	}
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 1+r.Intn(200))
		for i := range xs {
			edge := float64(r.Intn(257))/128 - 1
			switch r.Intn(3) {
			case 0:
				xs[i] = math.Max(-1, math.Nextafter(edge, -2))
			case 1:
				xs[i] = math.Min(1, math.Nextafter(edge, 2))
			default:
				xs[i] = edge
			}
		}
		requireKthBest(t, fmt.Sprintf("edges %d", trial), xs)
	}
}

// fuzzScore maps two bytes to a cosine: a multiple of 1/256 in [-1, 1] —
// ±1, 0 and every bucket edge b/128 − 1 among them, and the middles between
// edges — negated (−0 too) or moved one step toward zero by the top bits; both
// top bits set make it NaN, the vector scan's mark for no candidate.
func fuzzScore(u uint16) float64 {
	s := float64(int(u%513)-256) / 256
	switch u >> 14 {
	case 1:
		s = -s
	case 2:
		s = math.Nextafter(s, 0)
	case 3:
		s = math.NaN()
	}
	return s
}

// FuzzKthBest decodes bytes into cosines and NaN, two bytes each, and holds
// kthBest to a sort of the cosines for every k.
func FuzzKthBest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 0, 1, 0, 0x40, 0x01, 0x01})
	f.Add([]byte{0x80, 0, 0x80, 2, 0x80, 0x01, 0x80, 0xff, 0x40, 0xfe})
	f.Add(bytes.Repeat([]byte{0x12, 0x34}, 40))
	f.Add([]byte{0, 0xc0, 0, 2, 0, 0xc0, 0x40, 0x01, 0x01, 0xff}) // NaN among cosines, first and inside
	f.Add([]byte{0, 0xc0, 0, 0xc0, 0, 0xc0})                      // nothing but NaN: no k to ask
	f.Add(append(bytes.Repeat([]byte{0, 0xc0}, 30), 0, 1, 0, 1))  // NaN filling, two tied cosines after it
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/2)
		for i := range xs {
			xs[i] = fuzzScore(binary.LittleEndian.Uint16(data[2*i:]))
		}
		requireKthBest(t, "fuzz", xs)
	})
}

package docstore

// topK selects the best k items under a strict total order without sorting
// the full candidate set: a k-sized min-heap keyed by "worst kept" replaces
// the seed's sort-then-truncate. better must be a strict total order
// (searches break score ties by document id), which makes the selected set —
// and, after the final drain, the emitted order — identical to sorting
// everything. k < 0 means unbounded: push degrades to append and sorted
// heapifies before draining, preserving the "return all, ranked" calls.
type topK[T any] struct {
	k      int
	better func(a, b T) bool
	items  []T
}

func (h *topK[T]) push(x T) {
	if h.k == 0 {
		return
	}
	if h.k < 0 {
		h.items = append(h.items, x)
		return
	}
	if len(h.items) < h.k {
		h.items = append(h.items, x)
		i := len(h.items) - 1
		for i > 0 {
			p := (i - 1) / 2
			// Min-heap on "worse": the root is the worst item kept.
			if !h.better(h.items[p], h.items[i]) {
				break
			}
			h.items[i], h.items[p] = h.items[p], h.items[i]
			i = p
		}
		return
	}
	if !h.better(x, h.items[0]) {
		return
	}
	h.items[0] = x
	h.siftDown(0, len(h.items))
}

// siftDown restores the heap property for the subtree rooted at i, treating
// only items[:n] as the heap.
func (h *topK[T]) siftDown(i, n int) {
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h.better(h.items[m], h.items[l]) {
			m = l
		}
		if r < n && h.better(h.items[m], h.items[r]) {
			m = r
		}
		if m == i {
			return
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}

// sorted ranks the kept items best-first and returns them, draining the
// heap in place: repeatedly swap the root (worst remaining) to the end of
// the shrinking prefix and sift down — a heapsort, so no comparison closure
// escapes to sort.Slice and nothing allocates. The initial heapify makes
// the drain valid for the unbounded (k < 0) append-only case too; for the
// bounded case the items already form a heap and heapify is a cheap no-op
// verification. The heap is consumed; the receiver must not be pushed to
// afterwards.
func (h *topK[T]) sorted() []T {
	n := len(h.items)
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, n)
	}
	for end := n - 1; end > 0; end-- {
		h.items[0], h.items[end] = h.items[end], h.items[0]
		h.siftDown(0, end)
	}
	return h.items
}

package docstore

// topK and selection keep the best k under scoredBetter, a strict total
// order, so either keeps the set sort-then-truncate would in any arrival
// order. topK is a min-heap, root the worst kept: for an exact k-th best while
// candidates arrive (the text walk's θ) and to rank a result in place. k < 0
// is unbounded: push appends, sorted heapifies before draining.
type topK struct {
	k     int
	items []scored
}

func (h *topK) push(x scored) {
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
			if !scoredBetter(h.items[p], h.items[i]) {
				break
			}
			h.items[i], h.items[p] = h.items[p], h.items[i]
			i = p
		}
		return
	}
	if !scoredBetter(x, h.items[0]) {
		return
	}
	h.items[0] = x
	h.siftDown(0, len(h.items))
}

// siftDown restores the heap property for the subtree rooted at i, treating
// only items[:n] as the heap.
func (h *topK) siftDown(i, n int) {
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && scoredBetter(h.items[m], h.items[l]) {
			m = l
		}
		if r < n && scoredBetter(h.items[m], h.items[r]) {
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
// heap in place: heapify (a no-op check when bounded), then a heapsort over
// the heap's own array, so nothing allocates. The heap is consumed.
func (h *topK) sorted() []scored {
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

// selectionSlack·k is how much a selection buffers before a cut: O(k)
// scratch, and each cut's O(k) work removes k entries (CHANGES.md, PR 25).
const selectionSlack = 2

// selection is for where only the members of the k best are needed: an
// append buffer cut back by quickselect, unranked (k < 0: all). After a cut,
// items[k-1] is the worst kept, and an offer not better could never be kept.
type selection struct {
	k     int
	items []scored
	cut   bool
}

func (s *selection) offer(x scored) {
	if s.k == 0 || s.cut && !scoredBetter(x, s.items[s.k-1]) {
		return
	}
	if s.items = append(s.items, x); len(s.items) == selectionSlack*s.k {
		s.best()
	}
}

// best cuts the buffer to the k best offered and returns them, in place.
func (s *selection) best() []scored {
	if s.k >= 0 && len(s.items) > s.k {
		selectBest(s.items, s.k)
		s.items, s.cut = s.items[:s.k], true
	}
	return s.items
}

// selectBest reorders items, 0 < k ≤ len(items), so that items[:k] are the k
// best and items[k-1] the worst of them: Hoare's FIND, expected linear time.
func selectBest(items []scored, k int) {
	n := k - 1
	for lo, hi := 0, len(items)-1; lo < hi; {
		p, i, j := items[lo+(hi-lo)/2], lo, hi
		for i <= j {
			for scoredBetter(items[i], p) {
				i++
			}
			for scoredBetter(p, items[j]) {
				j--
			}
			if i <= j {
				items[i], items[j] = items[j], items[i]
				i++
				j--
			}
		}
		// Not worse than p: items[lo..j]; not better: items[i..hi]; p between.
		if n >= i {
			lo = i
		} else if hi = j; n > j {
			return
		}
	}
}

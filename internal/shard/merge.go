package shard

import "repro/internal/wire"

// Streaming per-shard top-k merge. Each shard answers with its local top-k
// already in final order (score descending, document ID ascending — the
// docstore heap's total order), and the corpus partition is disjoint, so
// the global top-k is a k-way merge of the list heads: no re-scoring, no
// deduplication, and only the heads ever compared. Because every shard
// scored under the same GlobalStats floats, the merged ranking is
// bit-identical to the single-node SearchText over the union corpus.

// itemBetter is the docstore ranking order on wire items: score
// descending, document ID ascending on ties.
func itemBetter(a, b wire.ResultItem) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.DocID < b.DocID
}

// MergeTopK merges per-shard result lists (each sorted best-first) into
// the global top-k, preserving the docstore's total order. It is a
// streaming heads merge over a tiny heap of one cursor per non-empty list.
// When only one list is non-empty the result is that list itself, cut to
// k: callers must treat the returned items as read-only.
func MergeTopK(lists [][]wire.ResultItem, k int) []wire.ResultItem {
	if k <= 0 {
		return nil
	}
	only, nonEmpty := -1, 0
	for li := range lists {
		if len(lists[li]) > 0 {
			only = li
			nonEmpty++
		}
	}
	if nonEmpty == 1 {
		return lists[only][:min(k, len(lists[only]))]
	}
	// heap of (list, position) cursors ordered by the head item; tiny
	// (≤ shard count), so sift costs are trivial.
	type cur struct{ li, pos int }
	heads := make([]cur, 0, len(lists))
	head := func(c cur) wire.ResultItem { return lists[c.li][c.pos] }
	less := func(a, b cur) bool { return itemBetter(head(a), head(b)) }
	var siftDown func(i int)
	siftDown = func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			best := i
			if l < len(heads) && less(heads[l], heads[best]) {
				best = l
			}
			if r < len(heads) && less(heads[r], heads[best]) {
				best = r
			}
			if best == i {
				return
			}
			heads[i], heads[best] = heads[best], heads[i]
			i = best
		}
	}
	for li := range lists {
		if len(lists[li]) > 0 {
			heads = append(heads, cur{li: li})
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]wire.ResultItem, 0, k)
	for len(heads) > 0 && len(out) < k {
		best := heads[0]
		out = append(out, head(best))
		if best.pos+1 < len(lists[best.li]) {
			heads[0].pos++
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(0)
	}
	return out
}

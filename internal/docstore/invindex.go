package docstore

// scored is a ranked hit. seg and ord are the document's segment and its
// ordinal there: they let the hit assembler resolve the Document without a
// map lookup.
type scored struct {
	id    string
	seg   int32
	ord   uint32
	score float64
}

// scoredBetter is the deterministic (score desc, id asc) ranking order, a
// strict total order as ids are unique: topK and selection keep what
// sort-then-truncate would, in any arrival order. A segment's ordinals ascend
// with its sorted cx.ids, so a tie within one compares ordinals, not ids.
func scoredBetter(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.seg == b.seg {
		return a.ord < b.ord
	}
	return a.id < b.id
}

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

// scoredBetter is the deterministic (score desc, id asc) ranking order; ids
// are unique so it is a strict total order, which makes topK and selection
// provably identical to sort-then-truncate — and makes the selected top-k
// set independent of the order candidates arrive in.
func scoredBetter(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

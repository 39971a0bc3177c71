package docstore

// scored is a ranked text hit. ord is the document's ordinal in the
// compiled base index, or -1 for overlay documents — it lets the hit
// assembler resolve the Document without a map lookup.
type scored struct {
	id    string
	ord   int32
	score float64
}

// scoredBetter is the deterministic (score desc, id asc) ranking order; ids
// are unique so it is a strict total order, which makes heap selection
// provably identical to sort-then-truncate — and makes the selected top-k
// set independent of the order candidates arrive in.
func scoredBetter(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

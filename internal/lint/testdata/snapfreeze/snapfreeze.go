// Fixture for the snapfreeze analyzer. Loaded as package path
// internal/docstore and type-checked like the real tree; the type and
// constructor names mirror the real snapshot machinery because the
// frozen-type table is keyed on them.
package docstore

type state struct {
	docs map[string]int
}

type compiledIndex struct {
	terms []string
	norms []float64
}

type overlay struct {
	termPost map[string][]int
}

type snapshot struct {
	epoch    uint64
	base     state
	cx       *compiledIndex
	ov       *overlay
	docCount int
}

type Store struct {
	current *snapshot
}

// appendTerm is a compiledIndex builder: assignments are legal while the
// value is still private to whoever is building it.
func (cx *compiledIndex) appendTerm(term string) {
	cx.terms = append(cx.terms, term)
	cx.norms = append(cx.norms, 0)
}

// installLocked builds and publishes the next snapshot: legal, including
// writes that land behind its inner state value.
func (s *Store) installLocked(next state) {
	sn := &snapshot{}
	sn.base = next
	sn.cx = &compiledIndex{}
	sn.cx.appendTerm("t")
	sn.docCount = len(next.docs)
	sn.epoch++
	s.current = sn // Store is not frozen: republishing the pointer is the design
}

// cloneNextN is overlay's fold-family constructor: legal.
func (ov *overlay) cloneNextN() *overlay {
	next := &overlay{termPost: map[string][]int{}}
	next.termPost["x"] = nil
	return next
}

// mutateAfterPublish is the violation class: writes through a published
// snapshot, each reported against the innermost frozen owner on the
// target path.
func (s *Store) mutateAfterPublish(id string) {
	s.current.docCount++             // want "snapshot.docCount assigned in mutateAfterPublish"
	s.current.base.docs[id] = 1      // want "snapshot.base assigned in mutateAfterPublish"
	s.current.cx.terms = nil         // want "compiledIndex.terms assigned in mutateAfterPublish"
	s.current.cx.norms[0] = 0        // want "compiledIndex.norms assigned in mutateAfterPublish"
	s.current.ov.termPost["t"] = nil // want "overlay.termPost assigned in mutateAfterPublish"
}

// Reads are always fine.
func (s *Store) read(id string) int {
	return s.current.base.docs[id] + s.current.docCount
}

// A reasoned allow covers a deliberate exception.
func (s *Store) patchEpoch(e uint64) {
	s.current.epoch = e //lint:allow snapfreeze fixture: documented single-writer epoch bump
}

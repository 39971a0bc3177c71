// Fixture for the snapfreeze analyzer. Loaded as package path
// internal/docstore and type-checked like the real tree; the type and
// constructor names mirror the real snapshot machinery because the
// frozen-type table is keyed on them.
package docstore

type timeEntry struct {
	key int64
	id  string
}

type state struct {
	byTime []timeEntry
}

type compiledIndex struct {
	terms []string
	norms []float64
}

type ovTerm struct {
	post     []int
	maskedDF int
}

type overlay struct {
	masked   []uint32
	termPost map[string]ovTerm
}

type snapshot struct {
	epoch    uint64
	base     *state
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

// next is the one builder of a base: its assignments are legal, closures
// included.
func (prev *state) next(e timeEntry) *state {
	st := &state{}
	st.byTime = append(st.byTime, prev.byTime...)
	func() { st.byTime[0] = e }()
	return st
}

// installLocked publishes a snapshot that is whole already: a literal assigns
// no field. Store is not frozen — republishing the pointer is the design.
func (s *Store) installLocked(next *state) {
	cx := &compiledIndex{}
	cx.appendTerm("t")
	s.current = &snapshot{epoch: s.current.epoch + 1, base: next, cx: cx, docCount: len(next.byTime)}
}

// cloneNextN is overlay's fold-family constructor: legal.
func (ov *overlay) cloneNextN() *overlay {
	next := &overlay{masked: append([]uint32(nil), ov.masked...), termPost: map[string]ovTerm{}}
	for t, e := range ov.termPost {
		next.termPost[t] = e
	}
	return next
}

// setTermPost appends onto the array the predecessor's slice ends in, and
// maskBase inserts into the clone's own tombstones: both are builders of
// the next overlay, so both are legal.
func (nv *overlay) setTermPost(t string, p int) {
	e := nv.termPost[t]
	e.post = append(e.post, p)
	nv.termPost[t] = e
}

func (nv *overlay) maskBase(ord uint32) {
	nv.masked = append(nv.masked, ord)
}

// mutateAfterPublish is the violation class: writes through a published
// snapshot, each reported against the innermost frozen owner on the
// target path.
func (s *Store) mutateAfterPublish(id string) {
	s.current.docCount++                  // want "snapshot.docCount assigned in mutateAfterPublish"
	s.current.base = nil                  // want "snapshot.base assigned in mutateAfterPublish"
	s.current.base.byTime[0].id = id      // want "state.byTime assigned in mutateAfterPublish"
	s.current.cx.terms = nil              // want "compiledIndex.terms assigned in mutateAfterPublish"
	s.current.cx.norms[0] = 0             // want "compiledIndex.norms assigned in mutateAfterPublish"
	s.current.ov.termPost["t"] = ovTerm{} // want "overlay.termPost assigned in mutateAfterPublish"
	s.current.ov.masked[0] = 0            // want "overlay.masked assigned in mutateAfterPublish"
}

// Reads are always fine.
func (s *Store) read(id string) int {
	return len(s.current.base.byTime) + s.current.docCount
}

// A reasoned allow covers a deliberate exception.
func (s *Store) patchEpoch(e uint64) {
	s.current.epoch = e //lint:allow snapfreeze fixture: documented single-writer epoch bump
}

// Fixture for the snapfreeze analyzer. Loaded as package path
// internal/docstore and type-checked like the real tree; the type and
// constructor names mirror the real snapshot machinery because the
// frozen-type table is keyed on them.
package docstore

type timeEntry struct {
	key int64
	id  string
}

type segment struct {
	byTime []timeEntry
	dead   []uint32
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
	segs     []*segment
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

// buildSegment is the one builder of a segment: its assignments are legal,
// closures included.
func buildSegment(prev *segment, e timeEntry) *segment {
	seg := &segment{}
	seg.byTime = append(seg.byTime, prev.byTime...)
	func() { seg.byTime[0] = e }()
	return seg
}

// withDead is the copy-on-write fold of tombstones: it assigns fields of the
// copy it returns, never of the published entry it was given.
func (seg *segment) withDead(masked []uint32) *segment {
	ns := *seg
	ns.dead = append(append([]uint32(nil), seg.dead...), masked...)
	return &ns
}

// installLocked publishes a snapshot that is whole already: a literal assigns
// no field, and the segment list is a new slice. Store is not frozen —
// republishing the pointer is the design.
func (s *Store) installLocked(next *segment) {
	cx := &compiledIndex{}
	cx.appendTerm("t")
	segs := append(append([]*segment(nil), s.current.segs...), next)
	s.current = &snapshot{epoch: s.current.epoch + 1, segs: segs, cx: cx, docCount: len(next.byTime)}
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
	s.current.segs = nil                  // want "snapshot.segs assigned in mutateAfterPublish"
	s.current.segs[0] = &segment{}        // want "snapshot.segs assigned in mutateAfterPublish"
	s.current.segs[0].byTime[0].id = id   // want "segment.byTime assigned in mutateAfterPublish"
	s.current.segs[0].dead[0] = 0         // want "segment.dead assigned in mutateAfterPublish"
	s.current.cx.terms = nil              // want "compiledIndex.terms assigned in mutateAfterPublish"
	s.current.cx.norms[0] = 0             // want "compiledIndex.norms assigned in mutateAfterPublish"
	s.current.ov.termPost["t"] = ovTerm{} // want "overlay.termPost assigned in mutateAfterPublish"
	s.current.ov.masked[0] = 0            // want "overlay.masked assigned in mutateAfterPublish"
}

// Reads are always fine.
func (s *Store) read(id string) int {
	return len(s.current.segs[0].byTime) + s.current.docCount
}

// A reasoned allow covers a deliberate exception.
func (s *Store) patchEpoch(e uint64) {
	s.current.epoch = e //lint:allow snapfreeze fixture: documented single-writer epoch bump
}

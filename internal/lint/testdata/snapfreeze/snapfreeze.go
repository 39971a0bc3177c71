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
	vecs  []float64
	vecAt []uint32
}

type snapshot struct {
	epoch    uint64
	segs     []*segment
	cx       *compiledIndex
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

// addDoc is the other compiledIndex builder: it fills the vector column.
func (cx *compiledIndex) addDoc(concept []float64) {
	cx.vecs = append(cx.vecs, concept...)
	cx.vecAt = append(cx.vecAt, uint32(len(cx.vecs)))
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

// mutateAfterPublish is the violation class: writes through a published
// snapshot, each reported against the innermost frozen owner on the
// target path.
func (s *Store) mutateAfterPublish(id string) {
	s.current.docCount++                // want "snapshot.docCount assigned in mutateAfterPublish"
	s.current.segs = nil                // want "snapshot.segs assigned in mutateAfterPublish"
	s.current.segs[0] = &segment{}      // want "snapshot.segs assigned in mutateAfterPublish"
	s.current.segs[0].byTime[0].id = id // want "segment.byTime assigned in mutateAfterPublish"
	s.current.segs[0].dead[0] = 0       // want "segment.dead assigned in mutateAfterPublish"
	s.current.cx.terms = nil            // want "compiledIndex.terms assigned in mutateAfterPublish"
	s.current.cx.norms[0] = 0           // want "compiledIndex.norms assigned in mutateAfterPublish"
}

// normalizeColumn writes the published vector column in place, outside
// addDoc: a scan reading it concurrently would race.
func (s *Store) normalizeColumn(scale float64) {
	for i := range s.current.cx.vecs {
		s.current.cx.vecs[i] *= scale // want "compiledIndex.vecs assigned in normalizeColumn"
	}
	s.current.cx.vecAt = s.current.cx.vecAt[:1] // want "compiledIndex.vecAt assigned in normalizeColumn"
}

// Reads are always fine.
func (s *Store) read(id string) int {
	return len(s.current.segs[0].byTime) + s.current.docCount
}

// A reasoned allow covers a deliberate exception.
func (s *Store) patchEpoch(e uint64) {
	s.current.epoch = e //lint:allow snapfreeze fixture: documented single-writer epoch bump
}

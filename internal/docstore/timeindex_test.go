package docstore

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// timePair is a (CreatedAt, id) pair as a test writes it.
type timePair struct {
	key int64
	id  string
}

func (a timePair) compare(b timePair) int {
	return cmp.Or(cmp.Compare(a.key, b.key), strings.Compare(a.id, b.id))
}

// timeSnap builds the parts of a snapshot a time scan reads: two segments,
// each its ids and documents (ordinals ascend by id, as a compiled index
// numbers them) and its time index, and the ordinals of the first segment's
// ids that are dead.
func timeSnap(base, newer []timePair, dead ...string) *snapshot {
	seg := func(pairs []timePair, dead []string) *segment {
		byID := slices.Clone(pairs)
		slices.SortFunc(byID, func(a, b timePair) int { return strings.Compare(a.id, b.id) })
		seg := &segment{cx: &compiledIndex{}}
		for i, p := range byID {
			seg.cx.ids = append(seg.cx.ids, p.id)
			seg.cx.docs = append(seg.cx.docs, &Document{ID: p.id, CreatedAt: p.key})
			seg.byTime = append(seg.byTime, timeEntry{key: p.key, ord: uint32(i)})
		}
		slices.SortFunc(seg.byTime, func(a, b timeEntry) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.ord, b.ord)) })
		for _, id := range dead {
			ord, _ := seg.cx.ord(id)
			seg.dead = append(seg.dead, ord)
		}
		slices.Sort(seg.dead)
		return seg
	}
	return &snapshot{segs: []*segment{seg(base, dead), seg(newer, nil)}}
}

func scanned(scan func(visit func(*segment, uint32) bool)) []string {
	var out []string
	scan(func(seg *segment, ord uint32) bool {
		d := seg.cx.docs[ord]
		out = append(out, fmt.Sprintf("%d/%s", d.CreatedAt, d.ID))
		return true
	})
	return out
}

func TestTimeScanRange(t *testing.T) {
	sn := timeSnap(
		[]timePair{{50, "e"}, {10, "a"}, {30, "c"}},
		[]timePair{{20, "b"}, {40, "d"}})
	got := scanned(func(v func(*segment, uint32) bool) { sn.scanAsc(15, 45, v) })
	if want := []string{"20/b", "30/c", "40/d"}; !strsEqual(got, want) {
		t.Fatalf("scanAsc(15, 45) = %v, want %v", got, want)
	}
	if got := scanned(func(v func(*segment, uint32) bool) { sn.scanAsc(45, 15, v) }); len(got) != 0 {
		t.Fatalf("an empty range visited %v", got)
	}
}

// Equal keys order by id across the two indexes, and a dead base entry is
// not there at all.
func TestTimeScanTieOrder(t *testing.T) {
	sn := timeSnap(
		[]timePair{{10, "a"}, {10, "c"}, {10, "d"}},
		[]timePair{{10, "b"}, {10, "e"}}, "c")
	if got, want := scanned(func(v func(*segment, uint32) bool) { sn.scanAsc(10, 10, v) }), []string{"10/a", "10/b", "10/d", "10/e"}; !strsEqual(got, want) {
		t.Fatalf("ascending = %v, want %v", got, want)
	}
	if got, want := scanned(func(v func(*segment, uint32) bool) { sn.scanDesc(10, -1, v) }), []string{"10/e", "10/d", "10/b", "10/a"}; !strsEqual(got, want) {
		t.Fatalf("descending = %v, want %v", got, want)
	}
}

func TestTimeScanEarlyStop(t *testing.T) {
	var base, ov []timePair
	for i := 0; i < 100; i++ {
		e := timePair{int64(i), fmt.Sprintf("d%d", i)}
		if i%3 == 0 {
			ov = append(ov, e)
		} else {
			base = append(base, e)
		}
	}
	sn := timeSnap(base, ov)
	for name, scan := range map[string]func(func(*segment, uint32) bool){
		"scanAsc":  func(v func(*segment, uint32) bool) { sn.scanAsc(0, 99, v) },
		"scanDesc": func(v func(*segment, uint32) bool) { sn.scanDesc(99, -1, v) },
	} {
		n := 0
		scan(func(*segment, uint32) bool { n++; return n < 5 })
		if n != 5 {
			t.Fatalf("%s: early stop visited %d", name, n)
		}
	}
}

// The limit counts visits, and a dead entry is not a visit.
func TestTimeScanDescending(t *testing.T) {
	var base []timePair
	for i := 1; i <= 10; i++ {
		base = append(base, timePair{int64(i), fmt.Sprintf("d%d", i)})
	}
	sn := timeSnap(base, []timePair{{6, "x"}}, "d6")
	got := scanned(func(v func(*segment, uint32) bool) { sn.scanDesc(7, 3, v) })
	if want := []string{"7/d7", "6/x", "5/d5"}; !strsEqual(got, want) {
		t.Fatalf("scanDesc(7, 3) = %v, want %v", got, want)
	}
	if got := scanned(func(v func(*segment, uint32) bool) { sn.scanDesc(7, 0, v) }); len(got) != 0 {
		t.Fatalf("limit 0 visited %v", got)
	}
}

// Any split of a set of pairs into base, dead base and a newer segment scans
// as the sorted live set does, in both directions, over any range and limit.
func TestTimeScanMatchesSortedSliceProperty(t *testing.T) {
	f := func(keys []int8, seed int64, from, to int8, limit uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var base, ov, live []timePair
		var masked []string
		for i, k := range keys {
			e := timePair{int64(k), fmt.Sprintf("id%d", i)}
			switch r.Intn(3) {
			case 0:
				base, live = append(base, e), append(live, e)
			case 1:
				ov, live = append(ov, e), append(live, e)
			default:
				base, masked = append(base, e), append(masked, e.id)
			}
		}
		sn := timeSnap(base, ov, masked...)
		slices.SortFunc(live, timePair.compare)
		var asc, desc []string
		for _, e := range live {
			if e.key >= int64(from) && e.key <= int64(to) {
				asc = append(asc, fmt.Sprintf("%d/%s", e.key, e.id))
			}
			if e.key <= int64(to) {
				desc = append(desc, fmt.Sprintf("%d/%s", e.key, e.id))
			}
		}
		slices.Reverse(desc)
		desc = desc[:min(len(desc), int(limit))]
		return strsEqual(scanned(func(v func(*segment, uint32) bool) { sn.scanAsc(int64(from), int64(to), v) }), asc) &&
			strsEqual(scanned(func(v func(*segment, uint32) bool) { sn.scanDesc(int64(to), int(limit), v) }), desc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFreshestAllocatesPerResult pins the bounded descending scan: Freshest(5)
// costs what five documents cost, however many the store holds. It used to
// materialise the whole live time index on every call.
func TestFreshestAllocatesPerResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	build := func(n int) *Store {
		s := memStore(t)
		docs := make([]*Document, n)
		for i := range docs {
			docs[i] = doc(fmt.Sprintf("d%05d", i), "gold ring", "byzantine gold", int64(i), nil)
		}
		if err := s.PutBatch(docs); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // single windows: the scan merges three indexes
			if err := s.Put(doc(fmt.Sprintf("late%d", i), "gold ring", "byzantine gold", int64(n-2+i), nil)); err != nil {
				t.Fatal(err)
			}
		}
		if sn := s.snap.Load(); len(sn.segs) != 3 || len(sn.segs[0].byTime) != n {
			t.Fatalf("%d segments: not the shape this test is about", len(sn.segs))
		}
		return s
	}
	small, large := build(100), build(20000)
	if got := docIDs(large.Freshest(5)); !strsEqual(got, []string{"late2", "late1", "d19999", "late0", "d19998"}) {
		t.Fatalf("Freshest(5) = %v", got)
	}
	a := testing.AllocsPerRun(20, func() { small.Freshest(5) })
	b := testing.AllocsPerRun(20, func() { large.Freshest(5) })
	if b > a {
		t.Fatalf("Freshest(5) allocates %.0f times on 20 000 documents, %.0f on 100: the scan is not bounded by k", b, a)
	}
}

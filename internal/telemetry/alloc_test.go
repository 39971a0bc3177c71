package telemetry

import (
	"fmt"
	"testing"
	"time"
)

// TestTraceOfAnAskAllocatesOnce pins an enabled trace the shape of an ask —
// a root and five children, each ended — to one allocation: the trace, whose
// slab holds the spans and the root's child pointers. Finishing is left out;
// what it costs depends on whether the sampler keeps the trace.
func TestTraceOfAnAskAllocatesOnce(t *testing.T) {
	r := NewRegistrySeeded(1)
	got := testing.AllocsPerRun(100, func() {
		tr := r.StartTrace("ask", "q")
		for _, name := range []string{"plan", "negotiate", "execute", "negotiate", "merge"} {
			tr.Span(name, "src").End()
		}
	})
	if got != 1 {
		t.Fatalf("%v allocations per trace", got)
	}
}

// TestTraceBeyondSlab: a trace with more spans than its slab holds, and
// spans below the root's children, keeps every span, in order.
func TestTraceBeyondSlab(t *testing.T) {
	r := NewRegistrySeeded(2)
	tr := r.StartTrace("ask", "q")
	const n = 2 * slabSpans
	for i := 0; i < n; i++ {
		sp := tr.Span(fmt.Sprintf("s%d", i), "")
		sp.Child("leaf", fmt.Sprint(i)).End()
		sp.End()
	}
	tr.Finish()
	snaps := r.TraceByID(tr.ID())
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots of the trace", len(snaps))
	}
	kids := snaps[0].Root.Children
	if len(kids) != n {
		t.Fatalf("%d children, want %d", len(kids), n)
	}
	seen := map[string]bool{snaps[0].Root.ID: true}
	for i, c := range kids {
		if c.Name != fmt.Sprintf("s%d", i) || len(c.Children) != 1 || c.Children[0].Detail != fmt.Sprint(i) {
			t.Fatalf("child %d: %+v", i, c)
		}
		for _, id := range []string{c.ID, c.Children[0].ID} {
			if seen[id] {
				t.Fatalf("span id %s twice", id)
			}
			seen[id] = true
		}
	}
}

// TestObserveExemplarAllocatesNothing: an exemplar is stored in its bucket's
// slot, not boxed.
func TestObserveExemplarAllocatesNothing(t *testing.T) {
	h := NewRegistry().Histogram("h")
	id := TraceID(1)
	got := testing.AllocsPerRun(100, func() {
		id++
		h.ObserveExemplar(time.Duration(id)*time.Microsecond, id)
	})
	if got != 0 {
		t.Fatalf("%v allocations per observation", got)
	}
	n := 0
	for _, b := range h.Buckets() {
		if b.Exemplar != nil {
			n++
			if b.Exemplar.TraceID == 0 || b.Count == 0 {
				t.Fatalf("bucket %+v", b)
			}
		}
	}
	if n == 0 {
		t.Fatal("no exemplar kept")
	}
}

// TestIDStringRoundTrips: an ID renders as 16 lowercase hex digits that
// ParseTraceID reads back, at both ends of the range.
func TestIDStringRoundTrips(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xab, 1 << 63, ^uint64(0)} {
		s := TraceID(v).String()
		if want := fmt.Sprintf("%016x", v); s != want || SpanID(v).String() != want {
			t.Fatalf("%d renders %q, want %q", v, s, want)
		}
		if got, err := ParseTraceID(s); err != nil || got != TraceID(v) {
			t.Fatalf("ParseTraceID(%q) = %v, %v", s, got, err)
		}
	}
}

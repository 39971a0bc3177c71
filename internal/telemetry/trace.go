package telemetry

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request across every process it
// touches; SpanID identifies one timed step inside it. Both are 64-bit
// values drawn from the owning registry's seeded splitmix64 generator —
// never from global math/rand — so each process mints from its own stream
// and tests can seed registries for reproducible IDs. Zero means "no ID"
// (tracing disabled); the generator never returns it.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the ID as 16 hex digits (the form /debug/trace accepts).
func (id TraceID) String() string { return hex16(uint64(id)) }

// String renders the ID as 16 hex digits.
func (id SpanID) String() string { return hex16(uint64(id)) }

// hex16 is v in lowercase hex, zero-padded to 16 digits.
func hex16(v uint64) string {
	var buf [32]byte
	b := strconv.AppendUint(append(buf[:0], "0000000000000000"...), v, 16)
	return string(b[len(b)-16:])
}

// ParseTraceID parses the hex form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("telemetry: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// TraceContext is the propagated form of a trace — just enough for a
// remote process to continue the caller's trace: the trace ID and the
// caller span the remote work nests under. It crosses the wire as two
// uint64s (see internal/wire's Query/QueryResult trailing fields). The
// zero value means "no trace".
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// IsZero reports whether the context carries no trace.
func (tc TraceContext) IsZero() bool { return tc.TraceID == 0 }

// Span is one timed step inside a trace. Spans form a tree: the pipeline
// root (`ask`) has children like `plan`, `negotiate(source)`,
// `execute(source)`, `merge`. Methods no-op on nil, so fully disabled
// tracing costs nothing at call sites. mu guards the mutable fields
// (children, duration, err): a hedged attempt may End its span
// concurrently with the trace Finish walking the tree.
type Span struct {
	tr       *Trace
	id       SpanID
	name     string
	detail   string
	start    time.Time
	mu       sync.Mutex
	duration time.Duration
	err      string
	children []*Span
}

// ID returns the span's ID (0 on nil).
func (sp *Span) ID() SpanID {
	if sp == nil {
		return 0
	}
	return sp.id
}

// Context returns the propagation context rooted at this span: the trace
// ID plus this span's ID as the remote parent. Inject it into an outbound
// request so the remote side's trace nests under this span.
func (sp *Span) Context() TraceContext {
	if sp == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: sp.tr.id, SpanID: sp.id}
}

// Child starts a nested span.
func (sp *Span) Child(name, detail string) *Span {
	if sp == nil {
		return nil
	}
	c := sp.tr.newSpan()
	c.tr, c.id, c.name, c.detail, c.start = sp.tr, SpanID(sp.tr.reg.nextID()), name, detail, time.Now()
	sp.mu.Lock()
	sp.children = append(sp.children, c)
	sp.mu.Unlock()
	return c
}

// End closes the span.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	d := time.Since(sp.start)
	sp.mu.Lock()
	sp.duration = d
	sp.mu.Unlock()
}

// Fail closes the span recording an error.
func (sp *Span) Fail(err error) {
	if sp == nil {
		return
	}
	d := time.Since(sp.start)
	sp.mu.Lock()
	sp.duration = d
	if err != nil {
		sp.err = err.Error()
	}
	sp.mu.Unlock()
}

// Trace is one end-to-end pipeline execution. Finish() offers it to the
// registry's tail sampler, which decides whether it is worth retaining.
// Its first spans, and the root's first child pointers, are inline: a trace
// the size of an ask is one allocation, and the rest come from the heap.
type Trace struct {
	reg    *Registry
	id     TraceID
	parent SpanID // remote caller span (zero when locally rooted)
	op     string
	detail string
	begin  time.Time
	root   *Span
	used   atomic.Int32 // spans taken from slab
	slab   [slabSpans]Span
	kids   [slabSpans - 1]*Span // backs root.children
}

// slabSpans is how many spans a trace holds inline: an ask's root, its plan
// and merge, and a negotiate and an execute span at each of four sources.
const slabSpans = 11

// newSpan returns the trace's next inline span, or a new one.
func (t *Trace) newSpan() *Span {
	if i := t.used.Add(1) - 1; i < slabSpans {
		return &t.slab[i]
	}
	return new(Span)
}

// StartTrace opens a locally-rooted trace whose root span is named op;
// detail is free-form context (e.g. the query text). Nil registry returns
// a nil trace whose entire span API no-ops without allocating.
func (r *Registry) StartTrace(op, detail string) *Trace {
	if r == nil {
		return nil
	}
	return r.StartTraceFrom(TraceContext{}, op, detail)
}

// StartTraceFrom continues a caller's trace in this process: the new
// trace keeps the caller's trace ID and records the caller span as the
// root's remote parent, so /debug/trace can stitch the two processes'
// trees back together. A zero context starts a fresh trace with a new ID.
func (r *Registry) StartTraceFrom(parent TraceContext, op, detail string) *Trace {
	if r == nil {
		return nil
	}
	now := time.Now()
	t := &Trace{reg: r, op: op, detail: detail, begin: now, parent: parent.SpanID}
	if parent.TraceID != 0 {
		t.id = parent.TraceID
	} else {
		t.id = TraceID(r.nextID())
	}
	t.root = t.newSpan()
	t.root.tr, t.root.id, t.root.name, t.root.detail, t.root.start = t, SpanID(r.nextID()), op, detail, now
	t.root.children = t.kids[:0]
	return t
}

// ID returns the trace ID (0 on nil).
func (t *Trace) ID() TraceID {
	if t == nil {
		return 0
	}
	return t.id
}

// Context returns the propagation context rooted at the trace root span.
func (t *Trace) Context() TraceContext {
	if t == nil {
		return TraceContext{}
	}
	return t.root.Context()
}

// Span starts a direct child of the trace root.
func (t *Trace) Span(name, detail string) *Span {
	if t == nil {
		return nil
	}
	return t.root.Child(name, detail)
}

// Fail marks the whole trace as failed. Error traces are always retained
// by the tail sampler.
func (t *Trace) Fail(err error) {
	if t == nil || err == nil {
		return
	}
	t.root.mu.Lock()
	t.root.err = err.Error()
	t.root.mu.Unlock()
}

// Finish closes the root span and offers the trace to the tail sampler.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.root.End()
	t.root.mu.Lock()
	failed, dur := t.root.err != "", t.root.duration.Nanoseconds()
	t.root.mu.Unlock()
	t.reg.traces.offer(failed, dur, t.snapshot)
}

// SpanSnapshot is the serializable form of a span. Offsets and durations
// are nanoseconds relative to the trace start; IDs are 16-hex-digit
// strings (JSON numbers cannot hold 64 bits losslessly).
type SpanSnapshot struct {
	ID       string         `json:"id"`
	Name     string         `json:"name"`
	Detail   string         `json:"detail,omitempty"`
	OffsetNS int64          `json:"offset_ns"`
	DurNS    int64          `json:"dur_ns"`
	Err      string         `json:"err,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// TraceSnapshot is the serializable form of a whole trace. ParentSpan is
// the remote caller span for traces continued from another process (the
// stitching key); Err mirrors the root span's error so retention policy
// and operators can classify without walking the tree.
type TraceSnapshot struct {
	TraceID    string       `json:"trace_id"`
	ParentSpan string       `json:"parent_span_id,omitempty"`
	Op         string       `json:"op"`
	Query      string       `json:"query,omitempty"`
	Begin      time.Time    `json:"begin"`
	Err        string       `json:"err,omitempty"`
	Root       SpanSnapshot `json:"root"`
}

func (t *Trace) snapshot() TraceSnapshot {
	s := TraceSnapshot{TraceID: t.id.String(), Op: t.op, Query: t.detail, Begin: t.begin, Root: t.root.view(t.begin)}
	if t.parent != 0 {
		s.ParentSpan = t.parent.String()
	}
	s.Err = s.Root.Err
	return s
}

func (sp *Span) view(begin time.Time) SpanSnapshot {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	v := SpanSnapshot{
		ID:       sp.id.String(),
		Name:     sp.name,
		Detail:   sp.detail,
		OffsetNS: sp.start.Sub(begin).Nanoseconds(),
		DurNS:    sp.duration.Nanoseconds(),
		Err:      sp.err,
	}
	for _, c := range sp.children {
		v.Children = append(v.Children, c.view(begin))
	}
	return v
}

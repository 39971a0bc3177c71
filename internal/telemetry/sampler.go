package telemetry

import "sync"

// tailSampler replaces the old FIFO trace ring with tail-based retention:
// the keep/drop decision is made after the trace finishes, when its
// outcome is known. A FIFO ring under a heavy steady-state workload
// evicts the one trace per ten thousand that an operator actually wants
// to read; the sampler instead splits its fixed budget three ways:
//
//   - errors: every failed trace, FIFO among themselves, so incidents are
//     never sampled away (until error volume alone exceeds the class cap);
//   - slow: the slowest traces seen so far, a min-heap on root duration,
//     which converges on the p99+ tail of the workload;
//   - rest: a uniform reservoir (Algorithm R) over everything else, so
//     the retained set still shows what "normal" looks like.
//
// Randomness comes from a splitmix64 stream seeded by the registry —
// never global math/rand — so tests can make retention deterministic.
type tailSampler struct {
	mu   sync.Mutex
	seq  uint64 // monotone arrival stamp, for newest-first ordering
	seen uint64 // reservoir candidates observed (Algorithm R denominator)
	rng  uint64 // splitmix64 state for reservoir replacement

	errs []retainedTrace // FIFO, newest last
	slow []retainedTrace // min-heap on Root.DurNS
	rest []retainedTrace // uniform reservoir

	errCap, slowCap, restCap int
}

type retainedTrace struct {
	seq  uint64
	snap TraceSnapshot
}

// newTailSampler splits capacity ~3/8 errors, ~3/8 slow, rest reservoir.
func newTailSampler(capacity int, seed uint64) *tailSampler {
	if capacity < 8 {
		capacity = 8
	}
	errCap := capacity * 3 / 8
	slowCap := capacity * 3 / 8
	return &tailSampler{
		rng:     seed,
		errCap:  errCap,
		slowCap: slowCap,
		restCap: capacity - errCap - slowCap,
	}
}

// push offers an already-built snapshot for retention.
func (ts *tailSampler) push(snap TraceSnapshot) {
	ts.offer(snap.Err != "", snap.Root.DurNS, func() TraceSnapshot { return snap })
}

// offer runs the retention decision for one finished trace from the two
// facts it depends on — did it fail, how long did its root take — and calls
// build only when the trace is kept. On a busy node nearly every trace loses
// the reservoir draw, and rendering a snapshot (hex IDs, one SpanSnapshot
// per span) is most of what finishing a trace costs. build runs under the
// sampler lock; it must not call back into the sampler.
func (ts *tailSampler) offer(failed bool, durNS int64, build func() TraceSnapshot) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.seq++

	if failed {
		if len(ts.errs) == ts.errCap {
			copy(ts.errs, ts.errs[1:])
			ts.errs = ts.errs[:len(ts.errs)-1]
		}
		ts.errs = append(ts.errs, retainedTrace{seq: ts.seq, snap: build()})
		return
	}

	if len(ts.slow) < ts.slowCap {
		ts.slow = append(ts.slow, retainedTrace{seq: ts.seq, snap: build()})
		ts.siftUp(len(ts.slow) - 1)
		return
	}
	if durNS > ts.slow[0].snap.Root.DurNS {
		// The trace joins the slow set; the displaced heap minimum —
		// recently one of the slowest — falls through to compete for the
		// reservoir.
		displaced := ts.slow[0]
		ts.slow[0] = retainedTrace{seq: ts.seq, snap: build()}
		ts.siftDown(0)
		if slot := ts.reservoirSlot(); slot != nil {
			*slot = displaced
		}
		return
	}
	if slot := ts.reservoirSlot(); slot != nil {
		*slot = retainedTrace{seq: ts.seq, snap: build()}
	}
}

// reservoirSlot runs one step of Algorithm R over non-error, non-slow
// traces: it returns where the candidate goes, or nil when it is dropped.
func (ts *tailSampler) reservoirSlot() *retainedTrace {
	ts.seen++
	if len(ts.rest) < ts.restCap {
		ts.rest = append(ts.rest, retainedTrace{})
		return &ts.rest[len(ts.rest)-1]
	}
	ts.rng += 0x9E3779B97F4A7C15
	if j := mix64(ts.rng) % ts.seen; j < uint64(ts.restCap) {
		return &ts.rest[j]
	}
	return nil
}

func (ts *tailSampler) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if ts.slow[p].snap.Root.DurNS <= ts.slow[i].snap.Root.DurNS {
			return
		}
		ts.slow[p], ts.slow[i] = ts.slow[i], ts.slow[p]
		i = p
	}
}

func (ts *tailSampler) siftDown(i int) {
	n := len(ts.slow)
	for {
		least, l, r := i, 2*i+1, 2*i+2
		if l < n && ts.slow[l].snap.Root.DurNS < ts.slow[least].snap.Root.DurNS {
			least = l
		}
		if r < n && ts.slow[r].snap.Root.DurNS < ts.slow[least].snap.Root.DurNS {
			least = r
		}
		if least == i {
			return
		}
		ts.slow[i], ts.slow[least] = ts.slow[least], ts.slow[i]
		i = least
	}
}

// recent returns every retained trace, newest first.
func (ts *tailSampler) recent() []TraceSnapshot {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	all := make([]retainedTrace, 0, len(ts.errs)+len(ts.slow)+len(ts.rest))
	all = append(all, ts.errs...)
	all = append(all, ts.slow...)
	all = append(all, ts.rest...)
	ts.mu.Unlock()
	// Insertion sort by descending seq: the set is small (≤ capacity).
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].seq > all[j-1].seq; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	out := make([]TraceSnapshot, len(all))
	for i, e := range all {
		out[i] = e.snap
	}
	return out
}

// byID returns every retained snapshot of one trace (a distributed trace
// leaves one snapshot per process; within a process there is one).
func (ts *tailSampler) byID(id TraceID) []TraceSnapshot {
	if ts == nil {
		return nil
	}
	hex := id.String()
	var out []TraceSnapshot
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, set := range [][]retainedTrace{ts.errs, ts.slow, ts.rest} {
		for _, e := range set {
			if e.snap.TraceID == hex {
				out = append(out, e.snap)
			}
		}
	}
	return out
}

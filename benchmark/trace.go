package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// The traced pass records spans from outside the program: the harness times
// each ask, then replays that ask's work against each layer's public API
// (its own transport clients, the in-process stores, the codec) and records
// one span per call. A replayed span's parent is the span whose work it
// repeats, so a layer's self time is its span's duration minus its
// children's — and because the children ran after the parent, not inside
// it, "minus" is a subtraction of durations, not an interval cover.

const (
	rootSpan  = 0  // parent of an operation the load goroutine issued
	probeSpan = -1 // parent of a measurement attributed to no operation
)

// span is one timed call. Names are "<module>.<call>".
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Ask     int    `json:"ask"` // operation id shared by a root span and its replay
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the traced pass began
	EndNS   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
	asks  int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// nextAsk starts a new operation and returns its id.
func (t *tracer) nextAsk() int { t.asks++; return t.asks }

// add records a span and returns its id.
func (t *tracer) add(name string, parent, ask int, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Ask: ask, Name: name, StartNS: s, EndNS: s + d.Nanoseconds()})
	return id
}

// setEnd closes a span that was added open, d after its start.
func (t *tracer) setEnd(id int, d time.Duration) {
	t.spans[id-1].EndNS = t.spans[id-1].StartNS + d.Nanoseconds()
}

// timed runs f and records it as a span.
func (t *tracer) timed(name string, parent, ask int, f func()) int {
	start := time.Now()
	f()
	return t.add(name, parent, ask, start, time.Since(start))
}

// timedN runs f n times and records the mean as one span, for calls too
// short for one clock reading.
func (t *tracer) timedN(name string, parent, ask, n int, f func()) {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	t.add(name, parent, ask, start, time.Since(start)/time.Duration(n))
}

// childTime returns, indexed by span id, the summed duration of each span's
// children.
func (t *tracer) childTime() []int64 {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	return children
}

// durations returns, per span name, every span's duration and self time.
func (t *tracer) durations() (dur, self map[string][]time.Duration) {
	children := t.childTime()
	dur, self = map[string][]time.Duration{}, map[string][]time.Duration{}
	for _, s := range t.spans {
		d := s.EndNS - s.StartNS
		dur[s.Name] = append(dur[s.Name], time.Duration(d))
		self[s.Name] = append(self[s.Name], time.Duration(d-children[s.ID]))
	}
	return dur, self
}

func module(name string) string {
	mod, _, _ := strings.Cut(name, ".")
	return mod
}

// printSelfTimes prints, for each kind of root span, the mean self time each
// module contributed per operation. The rows sum to the mean root span.
func (t *tracer) printSelfTimes(w io.Writer) {
	children := t.childTime()
	rootOf := make([]int, len(t.spans)+1)
	for _, s := range t.spans {
		switch {
		case s.Parent > 0:
			rootOf[s.ID] = rootOf[s.Parent]
		case s.Parent == rootSpan:
			rootOf[s.ID] = s.ID
		}
	}
	type table struct {
		n     int
		total int64
		self  map[string]int64
	}
	tables := map[string]*table{}
	for _, s := range t.spans {
		if rootOf[s.ID] == 0 {
			continue // probe
		}
		root := t.spans[rootOf[s.ID]-1]
		tb := tables[root.Name]
		if tb == nil {
			tb = &table{self: map[string]int64{}}
			tables[root.Name] = tb
		}
		if s.ID == root.ID {
			tb.n++
			tb.total += s.EndNS - s.StartNS
		}
		tb.self[module(s.Name)] += s.EndNS - s.StartNS - children[s.ID]
	}
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tb := tables[name]
		mean := float64(tb.total) / float64(tb.n) / 1e3
		fmt.Fprintf(w, "per-layer self time per %s span (traced pass, %d spans, mean %.1f us)\n", name, tb.n, mean)
		mods := make([]string, 0, len(tb.self))
		for mod := range tb.self {
			mods = append(mods, mod)
		}
		sort.Strings(mods)
		var sum float64
		for _, mod := range mods {
			v := float64(tb.self[mod]) / float64(tb.n) / 1e3
			sum += v
			flag := ""
			if v < 0 {
				flag = "  (negative: the replay cost more than the call it repeats)"
			}
			fmt.Fprintf(w, "  %-12s %10.1f us %6.1f%%%s\n", mod, v, 100*v/mean, flag)
		}
		fmt.Fprintf(w, "  %-12s %10.1f us\n", "sum", sum)
	}
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// RenderText writes the snapshot as aligned markdown tables in the same
// style the benchmark harness uses — the REPL `\stats` view and the
// agora-sim end-of-run report.
func (s Snapshot) RenderText(w io.Writer) {
	if len(s.Counters) > 0 || len(s.Gauges) > 0 {
		tbl := metrics.NewTable("Counters & gauges", "name", "value")
		counters, gauges, _ := sortedKeys(s)
		for _, name := range counters {
			tbl.AddRow(name, fmt.Sprintf("%d", s.Counters[name]))
		}
		for _, name := range gauges {
			tbl.AddRow(name, s.Gauges[name])
		}
		tbl.Render(w)
	}
	if len(s.Histograms) > 0 {
		tbl := metrics.NewTable("Latency histograms (ms)",
			"name", "count", "mean", "p50", "p95", "p99", "min", "max")
		_, _, hists := sortedKeys(s)
		for _, name := range hists {
			h := s.Histograms[name]
			tbl.AddRow(name, fmt.Sprintf("%d", h.Count),
				h.Mean*1e3, h.P50*1e3, h.P95*1e3, h.P99*1e3, h.Min*1e3, h.Max*1e3)
		}
		tbl.Render(w)
	}
	if len(s.Traces) > 0 {
		fmt.Fprintf(w, "### Recent traces (%d, newest first)\n\n", len(s.Traces))
		limit := len(s.Traces)
		if limit > 5 {
			limit = 5
		}
		for _, t := range s.Traces[:limit] {
			renderTrace(w, t, nil, 0)
		}
		if len(s.Traces) > limit {
			fmt.Fprintf(w, "… %d older traces retained\n", len(s.Traces)-limit)
		}
		fmt.Fprintln(w)
	}
}

// String renders the snapshot to a string.
func (s Snapshot) String() string {
	var sb strings.Builder
	s.RenderText(&sb)
	return sb.String()
}

// RenderStitched writes same-trace snapshots as one cross-process tree.
// Each snapshot is one process's view; a snapshot whose ParentSpan matches
// a span in another snapshot renders nested under that span, marked `↘`,
// reconstructing the causal chain client → server → (deeper hops). Parents
// the sampler dropped leave their continuations rendered at top level.
func RenderStitched(w io.Writer, snaps []TraceSnapshot) {
	byParent := make(map[string][]TraceSnapshot)
	placed := make(map[string]bool) // ParentSpan values that found a home
	for _, s := range snaps {
		if s.ParentSpan != "" {
			byParent[s.ParentSpan] = append(byParent[s.ParentSpan], s)
		}
	}
	for _, s := range snaps {
		markPlaced(s.Root, byParent, placed)
	}
	for _, s := range snaps {
		if s.ParentSpan != "" && placed[s.ParentSpan] {
			continue // renders nested under its caller span
		}
		renderTrace(w, s, byParent, 0)
	}
}

// markPlaced records which ParentSpan keys resolve to a span in snap.
func markPlaced(sp SpanSnapshot, byParent map[string][]TraceSnapshot, placed map[string]bool) {
	if _, ok := byParent[sp.ID]; ok {
		placed[sp.ID] = true
	}
	for _, c := range sp.Children {
		markPlaced(c, byParent, placed)
	}
}

// renderTrace writes one snapshot's tree at depth, nesting under each span
// the snapshots byParent lists as its continuations in other processes (nil
// when rendering a single process's view).
func renderTrace(w io.Writer, t TraceSnapshot, byParent map[string][]TraceSnapshot, depth int) {
	indent := strings.Repeat("  ", depth)
	marker := "-"
	if depth > 0 {
		marker = "↘"
	}
	fmt.Fprintf(w, "%s%s %s", indent, marker, t.Op)
	if t.Query != "" {
		fmt.Fprintf(w, " %q", t.Query)
	}
	fmt.Fprintf(w, " — %s  [trace %s]", fmtDur(t.Root.DurNS), t.TraceID)
	if t.Err != "" {
		fmt.Fprintf(w, "  ERR %s", t.Err)
	}
	fmt.Fprintln(w)
	renderSpan(w, t.Root, byParent, depth+1, true)
}

func renderSpan(w io.Writer, sp SpanSnapshot, byParent map[string][]TraceSnapshot, depth int, isRoot bool) {
	if !isRoot {
		indent := strings.Repeat("  ", depth)
		name := sp.Name
		if sp.Detail != "" {
			name += "(" + sp.Detail + ")"
		}
		fmt.Fprintf(w, "%s· %-24s +%-9s %s", indent, name, fmtDur(sp.OffsetNS), fmtDur(sp.DurNS))
		if sp.Err != "" {
			fmt.Fprintf(w, "  ERR %s", sp.Err)
		}
		fmt.Fprintln(w)
	}
	next := depth
	if !isRoot {
		next = depth + 1
	}
	for _, c := range sp.Children {
		renderSpan(w, c, byParent, next, false)
	}
	for _, cont := range byParent[sp.ID] {
		renderTrace(w, cont, byParent, next)
	}
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func sortedKeys(s Snapshot) (counters, gauges, hists []string) {
	for name := range s.Counters {
		counters = append(counters, name)
	}
	for name := range s.Gauges {
		gauges = append(gauges, name)
	}
	for name := range s.Histograms {
		hists = append(hists, name)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)
	return
}

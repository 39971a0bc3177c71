package telemetry

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
)

// Handler returns the /debug/telemetry endpoint: the full Snapshot as
// indented JSON (counters, gauges, histograms with quantiles, recent
// traces with per-span durations). Nil-safe without a guard: the closure
// only calls Snapshot, which no-ops on a nil registry and serves the
// canonical empty document.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// MetricsHandler returns the /metrics endpoint: Prometheus text exposition
// of every instrument, histogram buckets carrying exemplar trace IDs.
// Nil-safe without a guard: the closure only calls RenderPrometheus, which
// no-ops on a nil registry (an empty exposition is valid).
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.RenderPrometheus(w)
	})
}

// TraceHandler returns the /debug/trace endpoint. `?id=<16 hex digits>`
// looks a retained trace up in the tail sampler and renders the stitched
// tree — for a distributed trace the sampler may hold several snapshots of
// the same ID (one per remote continuation that finished here), and the
// renderer nests each under the caller span it was propagated from.
// `&format=json` returns the raw snapshots instead. Nil-safe without a
// guard: the closure only dereferences r via TraceByID, which nil-guards.
func (r *Registry) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, err := ParseTraceID(req.URL.Query().Get("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		snaps := r.TraceByID(id)
		if len(snaps) == 0 {
			http.Error(w, "trace not retained: "+id.String(), http.StatusNotFound)
			return
		}
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(snaps)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		RenderStitched(w, snaps)
	})
}

// DebugMux builds the node introspection surface:
//
//	/debug/vars       — expvar (memstats, cmdline, anything Publish'd)
//	/debug/pprof/*    — CPU/heap/goroutine/trace profiling
//	/debug/telemetry  — JSON Snapshot of reg
//	/debug/trace      — stitched view of one retained trace (?id=<hex>)
//	/metrics          — Prometheus text exposition with exemplars
//
// Mounted on its own mux so the debug listener can bind a separate
// (firewalled) address from the data-plane port.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/telemetry", reg.Handler())
	mux.Handle("/debug/trace", reg.TraceHandler())
	mux.Handle("/metrics", reg.MetricsHandler())
	return mux
}

// PublishExpvar exposes the registry under the given expvar name so
// /debug/vars includes the live snapshot. Safe to call twice (expvar
// itself panics on duplicate names; we check first).
func PublishExpvar(name string, reg *Registry) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return reg.Snapshot() }))
}

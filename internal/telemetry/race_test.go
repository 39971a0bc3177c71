package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentInstruments hammers one registry from many goroutines —
// counters, gauges, histograms, traces, and concurrent snapshots — and then
// checks the final totals are exact. Run under -race this is the telemetry
// layer's concurrency regression test.
func TestConcurrentInstruments(t *testing.T) {
	const goroutines = 8
	const perG = 2000
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("requests")
			h := r.Histogram("latency")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(time.Duration(1+i%250) * time.Millisecond)
				r.Gauge("inflight").Add(1)
				r.Gauge("inflight").Add(-1)
				if i%100 == 0 {
					tr := r.StartTrace("ask", "load")
					tr.Span("execute", "src").End()
					tr.Finish()
				}
			}
		}(g)
	}
	// Concurrent readers must not trip the race detector.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)

	const want = goroutines * perG
	snap := r.Snapshot()
	if got := snap.Counters["requests"]; got != want {
		t.Fatalf("requests = %d, want %d", got, want)
	}
	h := snap.Histograms["latency"]
	if h.Count != want {
		t.Fatalf("histogram count = %d, want %d", h.Count, want)
	}
	if !(h.P50 <= h.P95 && h.P95 <= h.P99 && h.P99 <= h.Max) {
		t.Fatalf("quantiles not monotone: %+v", h)
	}
	if h.Min != 0.001 || h.Max != 0.250 {
		t.Fatalf("min/max = %g/%g", h.Min, h.Max)
	}
	if snap.Gauges["inflight"] != 0 {
		t.Fatalf("inflight gauge = %g", snap.Gauges["inflight"])
	}
	wantSum := float64(goroutines) * sumMillis(perG) / 1e3
	if diff := snap.Histograms["latency"].Sum - wantSum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("sum = %g, want %g", snap.Histograms["latency"].Sum, wantSum)
	}
}

// TestSpanEndRacesFinish is the regression test for the End/Fail data race:
// a losing hedge attempt ends (or fails) its span after the pipeline has
// already called Trace.Finish, so the duration/err writes race the
// snapshot walk unless Span.End/Span.Fail/Trace.Fail take the span lock.
// Run under -race this test failed before the locks were added.
func TestSpanEndRacesFinish(t *testing.T) {
	r := NewRegistrySeeded(13)
	for iter := 0; iter < 200; iter++ {
		tr := r.StartTrace("ask", "hedged")
		primary := tr.Span("execute", "src-0")
		hedge := tr.Span("execute", "src-1 (hedge)")
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			primary.End()
			hedge.Fail(errDeadline)
			tr.Fail(errDeadline)
		}()
		go func() {
			defer wg.Done()
			tr.Finish() // snapshot walk races the writes above
		}()
		wg.Wait()
	}
	if snaps := r.Snapshot().Traces; len(snaps) == 0 {
		t.Fatal("no traces retained")
	}
}

var errDeadline = errTimeout{}

type errTimeout struct{}

func (errTimeout) Error() string { return "deadline exceeded" }

// sumMillis reproduces the per-goroutine sum of (1 + i%250) ms samples.
func sumMillis(n int) float64 {
	var total float64
	for i := 0; i < n; i++ {
		total += float64(1 + i%250)
	}
	return total
}

// TestExemplarNeverTears races observations into one bucket against readers
// of the exemplars: every sample's value encodes its trace ID, so an
// (id, value) pair taken from two observations shows. Run under -race it is
// also the slot's data-race test.
func TestExemplarNeverTears(t *testing.T) {
	const writers, perW = 4, 20000
	h := NewRegistry().Histogram("h")
	// valueOf keeps every sample within (512µs, 1024µs], one bucket.
	valueOf := func(id TraceID) float64 { return (600 + float64(id%397)) * 1e-6 }
	check := func() {
		for _, b := range h.Buckets() {
			if e := b.Exemplar; e != nil && e.Value != valueOf(e.TraceID) {
				t.Errorf("exemplar (%v, %v): value of another observation", e.TraceID, e.Value)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perW; i++ {
				id := TraceID(w*perW + i)
				h.ObserveSecondsExemplar(valueOf(id), id)
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
					check()
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	check()
	if h.Count() != writers*perW {
		t.Fatalf("count %d", h.Count())
	}
}

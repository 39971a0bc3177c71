package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestTelemetryUnderLoad drives one server from 8 concurrent clients and
// checks the telemetry snapshot for coherence: the request counter must
// equal the number of queries issued, the latency histogram must have
// observed exactly that many samples, and quantiles must be monotone.
// Run with -race: this is the tentpole's concurrency proof.
func TestTelemetryUnderLoad(t *testing.T) {
	srv, addr := startServer(t)
	reg := telemetry.NewRegistry()
	srv.SetTelemetry(reg)

	const (
		goroutines = 8
		perClient  = 25
	)
	var issued atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := DialWithTelemetry(addr, "load-client", 5*time.Second, reg)
			if err != nil {
				t.Errorf("client %d: dial: %v", id, err)
				return
			}
			defer c.Close()
			for q := 0; q < perClient; q++ {
				if _, err := c.Query("gold ring byzantine", nil, 5, 5*time.Second); err != nil {
					t.Errorf("client %d query %d: %v", id, q, err)
					return
				}
				issued.Add(1)
			}
		}(g)
	}
	// A concurrent reader exercises snapshot-vs-write races under -race.
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()

	want := issued.Load()
	if want != goroutines*perClient {
		t.Fatalf("only %d of %d queries issued (earlier errors above)", want, goroutines*perClient)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["transport.server.queries"]; got != want {
		t.Fatalf("server query counter = %d, want %d", got, want)
	}
	if got := snap.Counters["transport.client.queries"]; got != want {
		t.Fatalf("client query counter = %d, want %d", got, want)
	}
	if got := srv.Served(); got != want {
		t.Fatalf("srv.Served() = %d, want %d", got, want)
	}
	h, ok := snap.Histograms["transport.server.query"]
	if !ok {
		t.Fatal("no server query histogram")
	}
	if h.Count != want {
		t.Fatalf("histogram count = %d, want counter %d", h.Count, want)
	}
	if !(h.P50 <= h.P95 && h.P95 <= h.P99 && h.P99 <= h.Max) {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v max=%v", h.P50, h.P95, h.P99, h.Max)
	}
	if h.Min < 0 || h.Min > h.P50 {
		t.Fatalf("min incoherent: min=%v p50=%v", h.Min, h.P50)
	}
	rtt, ok := snap.Histograms["transport.client.query"]
	if !ok || rtt.Count != want {
		t.Fatalf("client RTT histogram count = %d, want %d", rtt.Count, want)
	}
}

// TestServedCountersRaceFree is the regression test for the bare-uint64
// counter race: Served is read concurrently with serving
// goroutines incrementing them. Before the atomic.Uint64 migration this
// failed under -race.
func TestServedCountersRaceFree(t *testing.T) {
	srv, addr := startServer(t)

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = srv.Served()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, "race-client", 5*time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for q := 0; q < 10; q++ {
				if _, err := c.Query("gold ring", nil, 3, 5*time.Second); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := srv.Served(); got != 40 {
		t.Fatalf("served = %d, want 40", got)
	}
}

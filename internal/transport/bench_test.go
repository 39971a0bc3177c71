package transport

import (
	"sync"
	"testing"
	"time"
)

// BenchmarkQueryRoundtrip measures one query round-trip over real TCP on
// the coalesced zero-alloc path (AppendTo staging on both sides,
// FrameReader pooled reads). allocs/op is process-wide — it counts the
// server's search and response encode too.
func BenchmarkQueryRoundtrip(b *testing.B) {
	_, addr := startServer(b)
	c, err := Dial(addr, "bench", 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("gold ring", nil, 5, 5*time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query("gold ring", nil, 5, 5*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryRoundtripBatched drives 8 concurrent askers over one
// client connection: the coalescer's natural batching regime, where
// frames staged during an in-flight Write share the next syscall.
func BenchmarkQueryRoundtripBatched(b *testing.B) {
	srv, addr := startServer(b)
	c, err := Dial(addr, "bench", 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("gold ring", nil, 5, 5*time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / 8
	for g := 0; g < 8; g++ {
		n := per
		if g == 0 {
			n += b.N % 8
		}
		wg.Add(1)
		go func(n int) { //lint:allow goroutine bench load generator; joined via wg.Wait below
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := c.Query("gold ring", nil, 5, 5*time.Second); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	b.StopTimer()
	// The client's sends are response-paced (each asker waits before asking
	// again), so batching mostly materializes on the server's result path.
	if st := srv.WireStats(); st.Flushes > 0 {
		b.ReportMetric(float64(st.Frames)/float64(st.Flushes), "srv-frames/flush")
	}
	if st := c.WireStats(); st.Flushes > 0 {
		b.ReportMetric(float64(st.Frames)/float64(st.Flushes), "cli-frames/flush")
	}
}

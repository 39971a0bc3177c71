package transport

import (
	"sync"
	"testing"
	"time"
)

// BenchmarkQueryRoundtrip measures one query round-trip over real TCP on
// the zero-alloc path (AppendTo into a reused frame buffer on both sides,
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

// BenchmarkQueryRoundtripConcurrent drives 8 concurrent askers over one
// client connection, whose sends contend for its one send lock; the
// server answers them on the connection's one handler goroutine.
func BenchmarkQueryRoundtripConcurrent(b *testing.B) {
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
}

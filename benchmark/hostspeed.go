package main

import (
	"sort"
	"sync"
	"time"
)

// The sandbox this benchmark runs on is a few vCPUs of a shared host, and the
// host changes speed under the benchmark's feet: over a seven-minute run of
// scatter_read one round of 1024 identical asks took between 170 and 595 ms,
// in phases that last from seconds to minutes, with no stolen time reported
// and nothing else running in the sandbox. A median over a 15 s run does not
// remove that (the medians of consecutive 15 s windows spread by 30%, of 30 s
// windows by 29%), so the benchmark measures the host while it measures the
// program: a goroutine runs a fixed probe every few milliseconds, and every
// bounded time is divided by how much slower than nominal the probe ran
// during it.
//
// The neighbours take two things away, and not together: the core's
// execution units (a sibling hardware thread) and the shared last-level
// cache. So there are two probes, and a workload names the one it resembles:
//
//   - memoryProbe: 8000 reads at the same pseudo-random addresses of an 8 MiB
//     buffer, 512 KiB of cache lines. The workload pushes them out of the
//     core's own caches between two probes; whether the shared cache still
//     holds them is up to the neighbours. For the workloads that walk the
//     indexes of stores of up to 32k documents.
//   - computeProbe: four independent multiply and shift chains, enough
//     instructions in flight to feel a busy sibling thread (a single dependent
//     chain tracks it half as well). For market_ask, whose eight 1k-document
//     stores stay in cache.
//
// Medians of consecutive 15 s windows of one process, wall seconds against
// calibrated by the memory and by the compute probe: scatter_read 12% / 2.0%
// / 4.6%, scatter_ingest 7.5% / 2.4% / 6.1%, node_durable 12.7% / 5.6% /
// 12.4%, market_ask 15.4% / 28.9% / 3.1%. The wrong probe is worse than none.
//
// The probes are part of the benchmark and not of the program, so no change
// to the program changes them — except, for the memory probe, through the
// cache: a change that evicts more between two probes slows the probe.
// host.slowdown is reported so that such a shift shows.

type probeKind int

const (
	memoryProbe probeKind = iota
	computeProbe
)

const (
	probeEvery = 4 * time.Millisecond
	probeWords = 1 << 20 // 8 MiB of uint64
	probeReads = 8000
	probeSteps = 20000
	// A slowdown is the median of at least this many probes.
	probeQuorum = 3
)

// probeNominal is what each probe takes on this host while no neighbour is
// active, so calibrated seconds are wall seconds on a quiet host.
var probeNominal = [...]time.Duration{memoryProbe: 50 * time.Microsecond, computeProbe: 40 * time.Microsecond}

// speedProbe samples the host's speed for as long as it runs.
type speedProbe struct {
	kind probeKind
	buf  []uint64
	sink uint64 // touched by the sampling goroutine alone

	mu   sync.Mutex
	at   []time.Time // when each probe started, ascending
	took []time.Duration

	stop chan struct{}
	done chan struct{}
}

func startSpeedProbe(kind probeKind) *speedProbe {
	p := &speedProbe{kind: kind, stop: make(chan struct{}), done: make(chan struct{})}
	if kind == memoryProbe {
		p.buf = make([]uint64, probeWords)
		for i := range p.buf {
			p.buf[i] = uint64(i)
		}
	}
	for i := 0; i < probeQuorum; i++ {
		p.sample()
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.sample()
			}
		}
	}()
	return p
}

// close stops the sampling goroutine and waits for it.
func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
}

func (p *speedProbe) sample() {
	t0 := time.Now()
	x := uint64(88172645463325252)
	if p.kind == memoryProbe {
		var sum uint64
		for i := 0; i < probeReads; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sum += p.buf[x&(probeWords-1)]
		}
		x = sum
	} else {
		a, b, c, d := x, x+1, x+2, x+3
		for i := 0; i < probeSteps; i++ {
			a = a*6364136223846793005 + 1442695040888963407
			b ^= b << 13
			b ^= b >> 7
			c = c*2862933555777941757 + 3037000493
			d ^= d >> 11
			d += a
			a ^= c >> 3
			b += d
		}
		x = a + b + c + d
	}
	d := time.Since(t0)
	p.sink += x // keeps the work from being optimised away
	p.mu.Lock()
	p.at = append(p.at, t0)
	p.took = append(p.took, d)
	p.mu.Unlock()
}

// slowdown is how much slower than nominal the host ran between t0 and t1:
// the median probe that started in the interval — or, when the interval is
// too short to hold a quorum, of the probes nearest to it — over the nominal
// probe. The median, because a probe the host preempted is not its speed.
func (p *speedProbe) slowdown(t0, t1 time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := sort.Search(len(p.at), func(k int) bool { return !p.at[k].Before(t0) })
	j := sort.Search(len(p.at), func(k int) bool { return p.at[k].After(t1) })
	for j-i < probeQuorum && (i > 0 || j < len(p.at)) {
		if i > 0 {
			i--
		}
		if j < len(p.at) {
			j++
		}
	}
	return float64(percentile(p.took[i:j], 50)) / float64(probeNominal[p.kind])
}

package docstore

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// The PutParallelN benchmarks are the profiling entry point for the
// group-commit pipeline: N writers call Put concurrently and the committer
// batches every writer waiting in the window behind ONE fsync. They run the
// durable SyncEveryPut configuration (the TCP node's), where the fsync
// dominates and amortization is the whole effect. Reported metrics:
// writer-side p50/p99 per-op latency and wal-syncs/op read from the
// telemetry registry (1/window-size). Nothing gates these numbers; a perf
// claim goes through `go run ./benchmark`.

func benchmarkPutParallel(b *testing.B, writers int) {
	// Same rationale as benchmarkSearchParallel: give every writer plus the
	// committer its own P so window formation reflects kernel scheduling,
	// not Go round-robin on a starved runner.
	if procs := writers + 1; runtime.GOMAXPROCS(0) < procs {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	reg := telemetry.NewRegistry()
	s, err := Open(Options{
		Dir: b.TempDir(), ConceptDim: 8, Seed: 1,
		SyncEveryPut: true, QueryCacheSize: -1, Telemetry: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	// Pre-generate every document so the timed region is Put alone.
	perWriter := b.N / writers
	if perWriter == 0 {
		perWriter = 1
	}
	docs := make([][]*Document, writers)
	for w := range docs {
		r := rand.New(rand.NewSource(int64(1000 + w)))
		docs[w] = make([]*Document, perWriter)
		for i := range docs[w] {
			d := benchDoc(r, w*perWriter+i)
			docs[w][i] = d
		}
	}
	syncs := reg.Counter("docstore.wal.syncs")
	syncsBefore := syncs.Value()
	lats := make([][]time.Duration, writers)
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		lats[w] = make([]time.Duration, 0, perWriter)
		go func(w int) {
			defer wg.Done()
			for _, d := range docs[w] {
				t0 := time.Now()
				if err := s.Put(d); err != nil {
					b.Error(err)
					return
				}
				lats[w] = append(lats[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()

	total := 0
	var all []time.Duration
	for _, l := range lats {
		total += len(l)
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	b.ReportMetric(quantileNs(all, 0.50), "p50-ns/op")
	b.ReportMetric(quantileNs(all, 0.99), "p99-ns/op")
	b.ReportMetric(float64(syncs.Value()-syncsBefore)/float64(total), "wal-syncs/op")
}

func BenchmarkPutParallel1(b *testing.B)  { benchmarkPutParallel(b, 1) }
func BenchmarkPutParallel4(b *testing.B)  { benchmarkPutParallel(b, 4) }
func BenchmarkPutParallel16(b *testing.B) { benchmarkPutParallel(b, 16) }

// BenchmarkWALReplay measures crash recovery: replaying a 2048-record log
// with the same unmarshal work Open performs. ReportAllocs makes the replay
// buffer reuse visible — allocations scale with documents decoded, not with
// a fresh payload buffer per record.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < benchCorpusSize; i++ {
		if err := s.Put(benchDoc(r, i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	_, walPath := snapshotPaths(dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		_, _, err := replayWAL(walPath, func(op uint8, payload []byte) error {
			if op == opPut {
				if _, err := unmarshalDocument(payload); err != nil {
					return err
				}
			}
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != benchCorpusSize {
			b.Fatalf("replayed %d records, want %d", n, benchCorpusSize)
		}
	}
}

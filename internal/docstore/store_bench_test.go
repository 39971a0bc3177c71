package docstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/feature"
)

// The SearchParallelN benchmarks are the profiling entry point for the
// epoch-snapshot read path: N readers call SearchText against the published
// snapshot (lock-free) while one writer churns documents into a durable
// store. The query cache is off so every read executes, and reader-side
// p50/p99 per-op latency is reported via ReportMetric. Nothing gates these
// numbers; a perf claim goes through `go run ./benchmark`.

const benchCorpusSize = 2048

// benchVocab is wide (512 terms over 2048 docs) so posting lists stay
// short and a single search is cheap — the selective-query regime where
// read latency is dominated by coordination with the writer, not by
// scoring. A tiny vocabulary would have every query score the whole
// corpus and drown the locking effect being measured.
var benchVocab = func() []string {
	stems := []string{
		"amber", "basalt", "cobalt", "damask", "ember", "fresco",
		"garnet", "harbor", "indigo", "jasper", "kiln", "lattice",
		"marble", "nectar", "obsidian", "pumice",
	}
	var v []string
	for i, s := range stems {
		for j := 0; j < 32; j++ {
			v = append(v, fmt.Sprintf("%s%02d%d", s, j, i))
		}
	}
	return v
}()

// benchQueries are two-term queries so reader results are float-exact
// regardless of accumulation order (IEEE addition of two terms is
// commutative); the determinism tests rely on the same property.
var benchQueries = func() []string {
	var qs []string
	for i := 0; i < 16; i++ {
		qs = append(qs, benchVocab[(i*37)%len(benchVocab)]+" "+benchVocab[(i*53+7)%len(benchVocab)])
	}
	return qs
}()

func benchDoc(r *rand.Rand, i int) *Document {
	w := func() string { return benchVocab[r.Intn(len(benchVocab))] }
	d := &Document{
		ID:         fmt.Sprintf("bench-%04d", i),
		Kind:       KindArticle,
		Title:      w() + " " + w(),
		Text:       w() + " " + w() + " " + w() + " " + w() + " " + w(),
		Topics:     []string{"t" + fmt.Sprint(i%8)},
		CreatedAt:  int64(i),
		Provenance: "bench",
	}
	if i%4 == 0 {
		v := make(feature.Vector, 8)
		for j := range v {
			v[j] = r.Float64()
		}
		d.Concept = v
	}
	return d
}

// newBenchStore builds the durable configuration the TCP node runs: a
// dir-backed WAL fsynced on every Put.
func newBenchStore(b *testing.B) *Store {
	b.Helper()
	s, err := Open(Options{
		Dir: b.TempDir(), ConceptDim: 8, Seed: 1,
		SyncEveryPut: true, QueryCacheSize: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < benchCorpusSize; i++ {
		if err := s.Put(benchDoc(r, i)); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func quantileNs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i].Nanoseconds())
}

func benchmarkSearchParallel(b *testing.B, readers int) {
	// The store targets multi-core nodes. On a runner with fewer cores
	// than goroutines, the Go scheduler queues the woken writer behind
	// CPU-bound readers for a whole 10ms round-robin, which starves the
	// churn and pushes all reader/writer interleaving into the far tail.
	// Giving every goroutine its own P hands the interleaving to the
	// kernel, which schedules the just-woken writer promptly — the same
	// fine-grained reader/writer overlap an idle multi-core node shows.
	if procs := readers + 1; runtime.GOMAXPROCS(0) < procs {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	s := newBenchStore(b)
	defer s.Close()
	stop := make(chan struct{})
	var writes atomic.Int64
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	// The churn writer free-runs on its CPU share — readers never make it
	// wait, nor it them. The reported writes/op makes the realized churn
	// visible.
	go func() {
		defer writerWG.Done()
		r := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Put(benchDoc(r, r.Intn(benchCorpusSize))); err != nil {
				panic(err)
			}
			writes.Add(1)
		}
	}()

	// Readers free-run: every goroutine issues its next query the moment
	// the previous one returns, so ns/op is the store's actual read
	// throughput under churn and the p50/p99 extras are real per-query
	// latencies. (An earlier revision paced readers on a 2ms think-time
	// loop to keep the CPU unsaturated; with the compiled zero-alloc read
	// path the search itself is the dominant cost again, and pacing only
	// buried it under scheduler sleep/wake noise.)
	perReader := b.N / readers
	if perReader == 0 {
		perReader = 1
	}
	lats := make([][]time.Duration, readers)
	var wg sync.WaitGroup
	b.ResetTimer()
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		lats[ri] = make([]time.Duration, 0, perReader)
		go func(ri int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				q := benchQueries[(ri+i)%len(benchQueries)]
				t0 := time.Now()
				s.SearchText(q, 10)
				lats[ri] = append(lats[ri], time.Since(t0))
			}
		}(ri)
	}
	wg.Wait()
	b.StopTimer()
	close(stop)
	writerWG.Wait()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	b.ReportMetric(quantileNs(all, 0.50), "p50-ns/op")
	b.ReportMetric(quantileNs(all, 0.99), "p99-ns/op")
	b.ReportMetric(float64(writes.Load())/float64(b.N), "writes/op")
}

func BenchmarkSearchParallel1(b *testing.B)  { benchmarkSearchParallel(b, 1) }
func BenchmarkSearchParallel4(b *testing.B)  { benchmarkSearchParallel(b, 4) }
func BenchmarkSearchParallel16(b *testing.B) { benchmarkSearchParallel(b, 16) }

// BenchmarkSearchTextCacheHit measures the generation-tagged result cache
// on a quiet store: after the first execution every iteration is a cache
// hit (a byte-key lookup returning the shared hit slice — no index work,
// no copying, no allocation).
func BenchmarkSearchTextCacheHit(b *testing.B) {
	s, err := Open(Options{ConceptDim: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(42))
	for i := 0; i < benchCorpusSize; i++ {
		if err := s.Put(benchDoc(r, i)); err != nil {
			b.Fatal(err)
		}
	}
	q := benchQueries[0]
	s.SearchText(q, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SearchText(q, 10)
	}
}

// BenchmarkSearchTextCold measures a single-threaded uncached search —
// the raw top-k + snapshot read path.
func BenchmarkSearchTextCold(b *testing.B) {
	s := newBenchStore(b)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SearchText(benchQueries[i%len(benchQueries)], 10)
	}
}

// BenchmarkSearchVector is the price of exact vector search: SearchVector
// scores every live vector, so a search costs O(live vectors). k = 400 is a
// market ask's vector pool (max(4k, 32) at k = 100); every document carries a
// 32-dimensional concept, the market sources' dimension, and the store is
// one bulk-loaded segment.
func BenchmarkSearchVector(b *testing.B) {
	for _, n := range []int{32768, 131072} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			s, err := Open(Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			r := rand.New(rand.NewSource(int64(n)))
			vec := func() feature.Vector {
				v := make(feature.Vector, 32)
				for j := range v {
					v[j] = r.NormFloat64()
				}
				return v
			}
			docs := make([]*Document, n)
			for i := range docs {
				docs[i] = &Document{
					ID: fmt.Sprintf("v%06d", i), Kind: KindArticle, CreatedAt: int64(i),
					Title: benchVocab[r.Intn(len(benchVocab))], Concept: vec(),
				}
			}
			if err := s.PutBatch(docs); err != nil {
				b.Fatal(err)
			}
			queries := make([]feature.Vector, 16)
			for i := range queries {
				queries[i] = vec()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if hits := s.SearchVector(queries[i%len(queries)], 400); len(hits) != 400 {
					b.Fatalf("%d hits, want 400", len(hits))
				}
			}
		})
	}
}

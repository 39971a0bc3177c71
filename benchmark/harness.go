package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// config is one workload run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64 // 0 = fixedRounds rounds; >0 = rounds until this much time is measured
	trace    bool
	quick    bool
	outDir   string    // store directories and trace files go under here
	log      io.Writer // the human-readable report
}

const (
	fixedRounds = 5 // timed rounds when no -seconds is given
	minRounds   = 3 // timed rounds at least, however short -seconds is
	setupRuns   = 3 // set-ups per run; setup_s is their median
	topK        = 10
)

// bench is one workload. The harness drives it: setup (timed, with one
// discarded warm-up round), rounds of a fixed operation count, verify, close.
type bench interface {
	// setup generates the inputs from the seed, loads the stores and starts
	// whatever serves them.
	setup() error
	// round runs one round's fixed operations on the single load goroutine,
	// recording into rec; with rec.tr set it also records spans and replays
	// each ask's work against the layers.
	round(rec *recorder) error
	// counters returns cumulative counts read from public state (registry
	// snapshots, Store.Stats, WireStats); the harness takes the difference
	// across the timed rounds.
	counters() map[string]float64
	// verify checks the program's outputs after the last round and returns
	// how many checks it made and how many were wrong. It may add metrics.
	verify(m map[string]float64) (checked, wrong int, err error)
	// layers adds the workload's per-layer metrics: un holds the untraced
	// rounds, delta their counter differences, tr the traced pass.
	layers(m map[string]float64, un *recorder, delta map[string]float64, tr *recorder)
	// setupMetrics adds what set-up determined: the inputs' hash and the
	// bulk-load rate.
	setupMetrics(m map[string]float64)
	// hostProbe names the probe the workload's times are calibrated by.
	hostProbe() probeKind
	close() error
}

// loaded is what every workload's set-up leaves behind.
type loaded struct {
	in          *inputs
	loadDocs    int
	loadSeconds float64 // inside the stores' bulk-load calls
}

func (l *loaded) setupMetrics(m map[string]float64) {
	m["input_hash"] = float64(l.in.hash >> 11) // 53 bits: exact in a float64
	m["docstore.bulk_load_docs_per_s"] = ratio(float64(l.loadDocs), l.loadSeconds)
}

// hostProbe is the memory probe unless a workload says otherwise.
func (l *loaded) hostProbe() probeKind { return memoryProbe }

func newBench(cfg config) (bench, error) {
	switch cfg.workload {
	case "scatter_read":
		return newScatter(cfg, false), nil
	case "scatter_ingest":
		return newScatter(cfg, true), nil
	case "market_ask":
		return newMarket(cfg), nil
	case "node_durable":
		return newNode(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// recorder collects what the load goroutine observes in a set of rounds.
type recorder struct {
	asks      []time.Duration            // latency of every ask call, pooled over the rounds
	series    map[string][]time.Duration // named stopwatches around other public calls
	counts    map[string]float64         // sums of public return values
	attempted int
	failed    int
	rounds    []time.Duration // wall time of each round
	roundAsks []int           // asks completed in each round
	slowdown  []float64       // the host's slowdown during each round
	tr        *tracer         // nil in untraced rounds
}

func newRecorder() *recorder {
	return &recorder{
		asks:   make([]time.Duration, 0, 1<<14),
		series: map[string][]time.Duration{},
		counts: map[string]float64{},
	}
}

func (r *recorder) ask(d time.Duration, ok bool) {
	r.asks = append(r.asks, d)
	r.op(ok)
}

func (r *recorder) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *recorder) observe(name string, d time.Duration) {
	r.series[name] = append(r.series[name], d)
}

func (r *recorder) wall() time.Duration {
	var w time.Duration
	for _, d := range r.rounds {
		w += d
	}
	return w
}

// askRate is asks completed per second: the median over the rounds of each
// round's own rate. Every round does the same work, so a round that was
// disturbed moves the mean rate of the run and not the median round's.
// Calibrated, a round's seconds are divided by the host's slowdown during it
// (see hostspeed.go); otherwise they are wall seconds.
func (r *recorder) askRate(calibrated bool) float64 {
	rates := make([]float64, len(r.rounds))
	for i, d := range r.rounds {
		rates[i] = float64(r.roundAsks[i]) / d.Seconds()
		if calibrated {
			rates[i] *= r.slowdown[i]
		}
	}
	return median(rates)
}

// calibratedAsks is every ask latency divided by its round's slowdown.
func (r *recorder) calibratedAsks() []time.Duration {
	out := make([]time.Duration, 0, len(r.asks))
	next := 0
	for i, n := range r.roundAsks {
		for _, d := range r.asks[next : next+n] {
			out = append(out, time.Duration(float64(d)/r.slowdown[i]))
		}
		next += n
	}
	return out
}

// runRounds runs timed rounds into rec: fixedRounds of them, or as many as
// fit in seconds (at least minRounds).
func runRounds(b bench, rec *recorder, cfg config, probe *speedProbe, seconds float64) error {
	want := fixedRounds
	if cfg.quick {
		want = 1
	}
	start := time.Now()
	for i := 0; ; i++ {
		if seconds > 0 {
			if i >= minRounds && time.Since(start).Seconds() >= seconds {
				return nil
			}
		} else if i >= want {
			return nil
		}
		t0, asked := time.Now(), len(rec.asks)
		if err := b.round(rec); err != nil {
			return err
		}
		t1 := time.Now()
		rec.rounds = append(rec.rounds, t1.Sub(t0))
		rec.roundAsks = append(rec.roundAsks, len(rec.asks)-asked)
		rec.slowdown = append(rec.slowdown, probe.slowdown(t0, t1))
	}
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(sp *spec, cfg config) (result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	// Set up several times and keep the last: setup_s is the median, so one
	// slow set-up (a cold page cache, a neighbour's burst) does not move it.
	n := setupRuns
	if cfg.quick {
		n = 1
	}
	var b bench
	var probe *speedProbe
	setups := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return result{}, fmt.Errorf("closing set-up %d: %w", i, err)
			}
			// Repeating the set-up is the harness's doing: collect the
			// previous one so its garbage is not the next one's peak RSS.
			runtime.GC()
		}
		var err error
		if b, err = newBench(cfg); err != nil {
			return result{}, err
		}
		if probe == nil {
			probe = startSpeedProbe(b.hostProbe())
			defer probe.close()
		}
		t0 := time.Now()
		if err = b.setup(); err == nil {
			err = b.round(newRecorder()) // discarded warm-up round
		}
		if err != nil {
			b.close()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		setups = append(setups, t1.Sub(t0).Seconds()/probe.slowdown(t0, t1))
	}
	res, err := measure(sp, cfg, b, probe, setups)
	if cerr := b.close(); err == nil {
		err = cerr
	}
	return res, err
}

func measure(sp *spec, cfg config, b bench, probe *speedProbe, setups []float64) (result, error) {
	// A layer a workload does not use reports 0: that a TCP-tier metric
	// reads 0 on market_ask is the evidence that the workload bypasses it.
	m := map[string]float64{}
	for _, d := range sp.PerLayer {
		m[d.Name] = 0
	}
	m["setup_s"] = median(setups)
	b.setupMetrics(m)

	// Untraced rounds: every end-to-end number comes from these. With the
	// traced pass on, the time is split between the two.
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	un := newRecorder()
	c0 := b.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := runRounds(b, un, cfg, probe, seconds); err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&ms1)
	delta := b.counters()
	for k, v := range c0 {
		delta[k] -= v
	}
	if len(un.asks) == 0 {
		return result{}, fmt.Errorf("no asks measured")
	}

	asks := float64(len(un.asks))
	m["ask_per_s"] = un.askRate(true)
	m["ask_p50_ms"] = ms(percentile(un.calibratedAsks(), 50))
	m["wall.ask_per_s"] = un.askRate(false)
	m["wall.ask_p50_ms"] = ms(percentile(un.asks, 50))
	m["host.slowdown"] = median(un.slowdown)
	m["ask_p99_ms"] = ms(percentile(un.asks, 99))
	m["allocs_per_ask"] = float64(ms1.Mallocs-ms0.Mallocs) / asks
	m["harness.rounds"] = float64(len(un.rounds))
	m["harness.ask_samples"] = asks
	m["harness.write_samples"] = float64(len(un.series["write"]))

	tr := newRecorder()
	if cfg.trace {
		tr.tr = newTracer()
		if err := runRounds(b, tr, cfg, probe, seconds); err != nil {
			return result{}, err
		}
		m["trace.overhead_ratio"] = tr.askRate(true)/m["ask_per_s"] - 1
	}
	m["peak_rss_mb"] = peakRSSMB() // before verify: the reference stores are not the workload's

	writeMetrics(m, un)
	b.layers(m, un, delta, tr)
	checked, wrong, err := b.verify(m)
	if err != nil {
		return result{}, fmt.Errorf("verify: %w", err)
	}
	if err := sp.covers(m); err != nil {
		return result{}, err
	}

	w := cfg.log
	fmt.Fprintf(w, "\n== %s  seed %d  rounds %d  asks %d (tail p%g supported)  writes %d  set-ups %.3v s (calibrated)\n",
		cfg.workload, cfg.seed, len(un.rounds), len(un.asks), highestPercentile(len(un.asks)),
		len(un.series["write"]), setups)
	fmt.Fprintf(w, "round wall times %v\n", un.rounds)
	if cfg.trace {
		tr.tr.printSelfTimes(w)
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := tr.tr.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(w, "trace: %d spans written to %s\n", len(tr.tr.spans), path)
	}

	res := result{
		Attempted: un.attempted + tr.attempted + checked,
		Failed:    un.failed + tr.failed + wrong,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	defs := sp.EndToEnd
	if cfg.trace {
		defs = sp.PerLayer
	}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s: not measured (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "%-34s %14.6g ratio (%d of %d)\n", "fail_ratio",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// percentile returns the nearest-rank p-th percentile of d (0 when empty).
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// highestPercentile is the highest of the usual tail percentiles that still
// has at least ten of n samples beyond it — the tail a sample can support.
func highestPercentile(n int) float64 {
	best := 500
	for _, permille := range []int{900, 950, 990, 999} {
		if n*(1000-permille) >= 10*1000 {
			best = permille
		}
	}
	return float64(best) / 10
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

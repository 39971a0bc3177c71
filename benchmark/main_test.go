package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func quickRun(t *testing.T, workload string, seed int64, trace bool) result {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(sp, config{workload: workload, seed: seed, trace: trace, quick: true, outDir: t.TempDir(), log: io.Discard})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestQuickSmoke runs every workload at smoke size, untraced and traced, and
// requires exactly the metrics BENCHMARK.json names for that mode: each
// present once, finite, with its unit, and no operation failed or wrong.
func TestQuickSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			res := quickRun(t, wl.Name, 1, trace)
			defs := sp.EndToEnd
			if trace {
				defs = sp.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, d.Name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", wl.Name, d.Name, m.Value)
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, want %q", wl.Name, d.Name, m.Unit, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, d.Name, m.Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

// TestSameSeedSameInputs: a seed fixes the inputs and, with them, the counts
// that depend on nothing else.
func TestSameSeedSameInputs(t *testing.T) {
	for wl, count := range map[string]string{
		"scatter_read":   "shard.fanout_per_ask",
		"scatter_ingest": "docstore.freezes",
	} {
		a, b := quickRun(t, wl, 1, true), quickRun(t, wl, 1, true)
		for _, name := range []string{"input_hash", count} {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s differs between two runs of seed 1: %v, %v", wl, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		if a.Metrics[count].Value == 0 {
			t.Errorf("%s: %s = 0, the workload does not exercise it", wl, count)
		}
	}
	if newInputs(1, 64, 32, 4, 8).hash == newInputs(2, 64, 32, 4, 8).hash {
		t.Error("seeds 1 and 2 hash to the same inputs")
	}
}

// TestCalibratedRate: a round's rate is scaled by the host's slowdown during
// it, the run's rate is the median round's, and an ask's latency is divided
// by its round's slowdown.
func TestCalibratedRate(t *testing.T) {
	r := &recorder{
		asks:      []time.Duration{10, 10, 40, 40, 30, 30},
		rounds:    []time.Duration{time.Second, 2 * time.Second, 10 * time.Second},
		roundAsks: []int{2, 2, 2},
		slowdown:  []float64{1, 2, 1},
	}
	if got := r.askRate(false); got != 1 {
		t.Errorf("wall rate = %v, want the median round's 1", got)
	}
	if got := r.askRate(true); got != 2 {
		t.Errorf("calibrated rate = %v, want 2", got)
	}
	want := []time.Duration{10, 10, 20, 20, 30, 30}
	got := r.calibratedAsks()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("calibrated asks = %v, want %v", got, want)
		}
	}
}

// TestSpeedProbe: the probe answers for any interval, however short or long
// ago, from the samples nearest to it.
func TestSpeedProbe(t *testing.T) {
	for _, kind := range []probeKind{memoryProbe, computeProbe} {
		p := startSpeedProbe(kind)
		now := time.Now()
		for _, iv := range [][2]time.Time{
			{now.Add(-time.Hour), now.Add(-time.Hour + time.Microsecond)},
			{now, now},
			{now.Add(time.Hour), now.Add(2 * time.Hour)},
			{now.Add(-time.Hour), now.Add(time.Hour)},
		} {
			if s := p.slowdown(iv[0], iv[1]); !(s > 0) || math.IsInf(s, 0) {
				t.Errorf("probe %d: slowdown(%v, %v) = %v", kind, iv[0].Sub(now), iv[1].Sub(now), s)
			}
		}
		p.close()
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 100; i >= 1; i-- {
		d = append(d, time.Duration(i))
	}
	for p, want := range map[float64]time.Duration{50: 50, 99: 99, 100: 100, 1: 1} {
		if got := percentile(d, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples must be 0")
	}
}

// TestSelfTime: a span's self time is its duration minus its children's, a
// probe belongs to no operation, and the per-module rows sum to the root.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	root := tr.add("shard.ask", rootSpan, 1, t0, 100)
	rtt := tr.add("transport.query", root, 1, t0, 60)
	tr.add("docstore.search_global", rtt, 1, t0, 25)
	tr.add("wire.query_encode", rtt, 1, t0, 5)
	tr.add("shard.merge", probeSpan, 1, t0, 7)
	_, self := tr.durations()
	for name, want := range map[string]time.Duration{
		"shard.ask": 40, "transport.query": 30, "docstore.search_global": 25, "wire.query_encode": 5, "shard.merge": 7,
	} {
		if got := self[name][0]; got != want {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "ask_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ask_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{1.00, 1.01, 1.02}, []float64{1.03, 1.00, 1.02}, "within"},
		{lower, []float64{1.00, 1.01, 1.02}, []float64{1.20, 1.21, 1.22}, "worse"},
		{lower, []float64{1.00, 1.01, 1.02}, []float64{0.80, 0.81, 0.82}, "better"},
		{lower, []float64{1.00, 1.30, 1.02}, []float64{1.25, 1.00, 1.26}, "unresolved"},
		{higher, []float64{100, 101, 102}, []float64{80, 81, 82}, "worse"},
		{higher, []float64{100, 101, 102}, []float64{120, 121, 122}, "better"},
		{higher, []float64{100, 101, 102}, nil, "unresolved"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestSpecWithinContract checks BENCHMARK.json against the limits the
// benchmark driver enforces before it runs anything.
func TestSpecWithinContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract has exactly 6", len(keys))
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range sp.Workloads {
		once(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if _, err := newBench(config{workload: w.Name}); err != nil {
			t.Error(err)
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range sp.EndToEnd {
		once(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(sp.EndToEnd, sp.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range sp.PerLayer {
		once(d.Name)
	}
}

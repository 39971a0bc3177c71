// Command benchmark is the repository's one composed benchmark: four
// workloads over the shipped components (sharded TCP tier, market pipeline,
// durable node), end-to-end ask metrics with regression bounds, and a traced
// pass that attributes an ask to its layers by replaying the ask's work
// against each layer's public API. BENCHMARK.json at the repository root
// names every workload and metric; README.md in this directory explains them.
//
//	go run ./benchmark -seed 1                 # all four workloads, 5 fixed rounds each
//	go run ./benchmark -seed 1 -trace 1        # plus the traced pass and per-layer table
//	go run ./benchmark -workload scatter_read -seed 1 -seconds 15 -trace 0
//	go run ./benchmark -compare a.jsonl b.jsonl
//
// Human-readable output goes to standard error; standard output carries one
// JSON result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// buildDir is where everything the benchmark writes lives (store
// directories, trace files), relative to the checkout root it runs from.
const buildDir = ".bench_build"

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process (default: all four, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measure rounds for this long (0 = a fixed number of rounds)")
	trace := flag.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke sizes: 2048-doc corpus, one round")
	out := flag.String("out", "", "append the JSON result line to this file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	flag.Parse()
	cfg.trace = *trace != 0
	cfg.outDir = buildDir
	cfg.log = os.Stderr

	if err := run(cfg, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(cfg config, out string, compare bool, args []string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	// One processor: with the runtime's default of one per vCPU, every hop
	// between the load goroutine, the servers and the stores can wake the
	// other vCPU, and on this shared host the wait for that vCPU is what gets
	// measured (the hypervisor reported as much time stolen as run, a tenth
	// of the asks took ten medians, 1000 to 2100 asks/s against a steady 3600
	// on one processor). Blocking system calls still get threads of their own.
	runtime.GOMAXPROCS(1)
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(sp, args[0], args[1], os.Stderr)
	}
	full := fullResult{Seed: cfg.seed, Env: environment(), Workloads: map[string]result{}}
	var line any = full
	if cfg.workload != "" {
		res, err := runWorkload(sp, cfg)
		if err != nil {
			return err
		}
		full.Workloads[cfg.workload] = res
		line = res
	} else {
		for _, w := range sp.Workloads {
			res, err := runChildren(w.Name, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			full.Workloads[w.Name] = res
		}
		printSummary(sp, full)
	}
	if out != "" {
		if err := appendJSON(out, full); err != nil {
			return err
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		return err
	}
	for name, res := range full.Workloads {
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed or were wrong", name, res.Failed, res.Attempted)
		}
	}
	return nil
}

// runChildren runs one workload in fresh child processes — the untraced
// run, then the traced one when asked — so set-up time and peak RSS are the
// workload's own, and merges their metrics.
func runChildren(name string, cfg config) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	merged := result{Correct: true, Metrics: map[string]metric{}}
	traces := []int{0}
	if cfg.trace {
		traces = append(traces, 1)
	}
	for _, t := range traces {
		args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(t)}
		if cfg.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			if err != nil {
				return result{}, err
			}
			return result{}, fmt.Errorf("child result: %w", jerr)
		}
		merged.Correct = merged.Correct && res.Correct
		merged.Attempted += res.Attempted
		merged.Failed += res.Failed
		for k, v := range res.Metrics {
			merged.Metrics[k] = v
		}
	}
	return merged, nil
}

// fullResult is the wrapped form -out appends and -compare reads: one
// invocation's results for every workload it ran, with the environment.
type fullResult struct {
	Seed      int64             `json:"seed"`
	Env       map[string]string `json:"env"`
	Workloads map[string]result `json:"workloads"`
}

func environment() map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

// appendJSON appends v to the file at path as one line.
func appendJSON(path string, v any) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary prints every metric of every workload by name with its unit.
func printSummary(sp *spec, full fullResult) {
	w := os.Stderr
	fmt.Fprintf(w, "\nseed %d  nproc %s  GOMAXPROCS %s  %s  commit %s\n", full.Seed,
		full.Env["nproc"], full.Env["gomaxprocs"], full.Env["go"], full.Env["commit"])
	fmt.Fprintf(w, "%-34s %-8s", "metric", "unit")
	for _, wl := range sp.Workloads {
		fmt.Fprintf(w, " %16s", wl.Name)
	}
	fmt.Fprintln(w)
	for _, defs := range [][]metricDef{sp.EndToEnd, sp.PerLayer} {
		for _, d := range defs {
			if _, ok := full.Workloads[sp.Workloads[0].Name].Metrics[d.Name]; !ok {
				continue
			}
			fmt.Fprintf(w, "%-34s %-8s", d.Name, d.Unit)
			for _, wl := range sp.Workloads {
				fmt.Fprintf(w, " %16.6g", full.Workloads[wl.Name].Metrics[d.Name].Value)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "%-34s %-8s", "fail_ratio", "ratio")
	for _, wl := range sp.Workloads {
		r := full.Workloads[wl.Name]
		fmt.Fprintf(w, " %16.6g", float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	fmt.Fprintln(w)
}

// spec is BENCHMARK.json: the one place workloads, metric names, units and
// regression bounds are written down. The program reads it so that what it
// emits and what the file promises cannot drift apart.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// covers reports a measured metric that BENCHMARK.json does not name.
func (sp *spec) covers(m map[string]float64) error {
	known := map[string]bool{}
	for _, defs := range [][]metricDef{sp.EndToEnd, sp.PerLayer} {
		for _, d := range defs {
			known[d.Name] = true
		}
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("metric %s is measured but not in BENCHMARK.json", name)
		}
	}
	return nil
}

// loadSpec finds BENCHMARK.json in the working directory (the checkout
// root, where `go run ./benchmark` runs) or its parent (where `go test`
// runs this package).
func loadSpec() (*spec, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var sp spec
		if err := json.Unmarshal(b, &sp); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &sp, nil
	}
	return nil, firstErr
}

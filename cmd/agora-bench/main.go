// Command agora-bench regenerates every pillar experiment's table from
// DESIGN.md §3 (the synthetic evaluation standing in for the vision paper's
// nonexistent one) as markdown — the content of EXPERIMENTS.md. The output
// is a function of -seed and -scale: two runs print the same bytes.
//
// Usage:
//
//	agora-bench [-seed N] [-scale F] [-only E4,E5]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	seed := flag.Int64("seed", 42, "random seed for all experiments")
	scale := flag.Float64("scale", 1.0, "workload scale factor (0.2 = quick, 1 = full)")
	only := flag.String("only", "", "comma-separated experiment ids to run (default all)")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	fmt.Printf("# Open Agora experiment suite (seed=%d, scale=%g)\n\n", *seed, *scale)
	if len(bench.RunAll(os.Stdout, *seed, *scale, want)) == 0 {
		fmt.Fprintln(os.Stderr, "agora-bench: no experiments matched -only")
		os.Exit(1)
	}
}

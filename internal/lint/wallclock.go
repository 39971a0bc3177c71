package lint

import "go/ast"

// kernelPackages are governed by the discrete-event kernel's determinism
// contract: given the same seed and configuration, a run must be
// byte-identical (DESIGN.md §4c). Reading the wall clock or the
// process-global rand source anywhere in these packages silently breaks
// that.
// internal/shard is included for the same reason: the router's pruning
// and merge math must be a pure function of the statistics, never of
// timing — its genuinely clock-dependent code (RPC deadlines, hedge
// timers, latency stopwatches) funnels through annotated helpers in
// shard/walltime.go.
var kernelPackages = []string{
	"internal/sim",
	"internal/core",
	"internal/overlay",
	"internal/negotiate",
	"internal/uncertainty",
	"internal/shard",
}

// bannedTime are the time-package functions that read or depend on the
// wall clock. Pure arithmetic (time.Duration, constants, Round, ...)
// stays allowed.
var bannedTime = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// bannedGlobalRand are the math/rand top-level functions drawing from the
// unseeded process-global source. Constructors (New, NewSource, NewZipf)
// remain allowed: seeded *rand.Rand streams owned by the kernel are the
// sanctioned randomness.
var bannedGlobalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true,
	"Seed": true, "Read": true,
}

// wallclockAnalyzer enforces contract (1), determinism: kernel-governed
// packages must not read wall-clock time or unseeded randomness. The
// telemetry-only stopwatch in internal/core/walltime.go and the clock
// helpers in internal/shard/walltime.go carry //lint:allow wallclock
// annotations explaining why they are safe.
var wallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid wall-clock time and global math/rand in kernel-governed packages",
	Run: func(p *Package, f *File, report ReportFunc) {
		if !underAny(p.Path, kernelPackages) {
			return
		}
		imports := fileImports(f.AST)
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := pkgSelector(imports, sel)
			if !ok {
				return true
			}
			switch {
			case pkgPath == "time" && bannedTime[name]:
				report(n.Pos(), "time.%s reads the wall clock in kernel-governed package %q; use the sim kernel clock, or annotate `//lint:allow wallclock <reason>` if the value never reaches kernel state", name, p.Path)
			case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && bannedGlobalRand[name]:
				report(n.Pos(), "rand.%s draws from the process-global source in kernel-governed package %q; draw from a seeded kernel-owned *rand.Rand stream", name, p.Path)
			}
			return true
		})
	},
}

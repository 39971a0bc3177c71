// Package repro's root benchmarks regenerate every experiment table in
// EXPERIMENTS.md (one benchmark per table; the paper is a vision paper with
// no tables of its own — see DESIGN.md §1 for the substitution).
//
// Run all:  go test -bench=. -benchmem
// One:      go test -bench=BenchmarkE4 -benchmem
package repro

import (
	"testing"

	"repro/internal/bench"
)

// benchScale keeps testing.B iterations snappy; cmd/agora-bench runs the
// full scale.
const benchScale = 0.25

func runExperiment(b *testing.B, run func(seed int64, scale float64) *bench.Result) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := run(int64(i)+1, benchScale)
		if r.Table.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE1FeatureMatching(b *testing.B)     { runExperiment(b, bench.E1FeatureMatching) }
func BenchmarkE2BeliefConvergence(b *testing.B)   { runExperiment(b, bench.E2BeliefConvergence) }
func BenchmarkE3SLAPremium(b *testing.B)          { runExperiment(b, bench.E3SLAPremium) }
func BenchmarkE4NegotiationTactics(b *testing.B)  { runExperiment(b, bench.E4NegotiationTactics) }
func BenchmarkE5Subcontracting(b *testing.B)      { runExperiment(b, bench.E5Subcontracting) }
func BenchmarkE6Personalization(b *testing.B)     { runExperiment(b, bench.E6Personalization) }
func BenchmarkE7ProfileMerge(b *testing.B)        { runExperiment(b, bench.E7ProfileMerge) }
func BenchmarkE8SocialRerank(b *testing.B)        { runExperiment(b, bench.E8SocialRerank) }
func BenchmarkE9CollabSharing(b *testing.B)       { runExperiment(b, bench.E9CollabSharing) }
func BenchmarkE10ContextActivation(b *testing.B)  { runExperiment(b, bench.E10ContextActivation) }
func BenchmarkE11FeedMatching(b *testing.B)       { runExperiment(b, bench.E11FeedMatching) }
func BenchmarkE12ScaleChurn(b *testing.B)         { runExperiment(b, bench.E12ScaleChurn) }
func BenchmarkE13MultiObjective(b *testing.B)     { runExperiment(b, bench.E13MultiObjective) }
func BenchmarkE14Docstore(b *testing.B)           { runExperiment(b, bench.E14Docstore) }
func BenchmarkE15AuctionVsBilateral(b *testing.B) { runExperiment(b, bench.E15AuctionVsBilateral) }
func BenchmarkE16ReputationLearning(b *testing.B) { runExperiment(b, bench.E16ReputationLearning) }
func BenchmarkE17LSHAblation(b *testing.B)        { runExperiment(b, bench.E17LSHAblation) }
func BenchmarkE18Discovery(b *testing.B)          { runExperiment(b, bench.E18DiscoveryVsRegistry) }
func BenchmarkE19RiskProfiling(b *testing.B)      { runExperiment(b, bench.E19RiskProfiling) }
func BenchmarkE20Telemetry(b *testing.B)          { runExperiment(b, bench.E20TelemetryOverhead) }
func BenchmarkE21ParallelFanout(b *testing.B)     { runExperiment(b, bench.E21ParallelFanout) }
func BenchmarkE22LockFreeReads(b *testing.B)      { runExperiment(b, bench.E22LockFreeReads) }
func BenchmarkE23GroupCommit(b *testing.B)        { runExperiment(b, bench.E23GroupCommit) }
func BenchmarkE24Tracing(b *testing.B)            { runExperiment(b, bench.E24DistributedTracing) }
func BenchmarkE25BlockMax(b *testing.B)           { runExperiment(b, bench.E25BlockMaxSearch) }
func BenchmarkE26ShardedScatter(b *testing.B)     { runExperiment(b, bench.E26ShardedScatter) }
func BenchmarkE27WirePath(b *testing.B)           { runExperiment(b, bench.E27WirePath) }

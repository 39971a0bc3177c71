package bench

import (
	"io"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// The tests here assert the qualitative shapes DESIGN.md §3 claims — they
// are the "does the reproduction hold" checks, run at reduced scale.
//
// None of them asserts on a stopwatch: E21's market-trip claim (at 4
// sources the trip's p50 is at most half that of visiting the sources one
// after another) is read in virtual time. Every assertion, substrate
// experiments (E20, E22–E27) included, is on counts, ratios of counts,
// virtual spans and identity flags; timing of the substrate is read from
// `go run ./benchmark`.

const testScale = 0.5

func TestE1Shapes(t *testing.T) {
	r := E1FeatureMatching(1, testScale)
	h := r.Headline
	// Combining feature sets should not lose much against the best single
	// set, and calibration must reduce ECE.
	if h["ndcg_text+concept"] < h["ndcg_text-only"]*0.85 && h["ndcg_text+concept"] < h["ndcg_concept-metadata"]*0.85 {
		t.Fatalf("hybrid collapsed: %v", h)
	}
	// Noisy low-level visual features carry signal but lose to metadata.
	if h["p10_visual (hist+texture)"] < 0.15 {
		t.Fatalf("visual features carry no signal: %v", h["p10_visual (hist+texture)"])
	}
	if h["p10_visual (hist+texture)"] > h["p10_concept-metadata"] {
		t.Fatalf("noisy visual should not beat concept metadata: %v", h)
	}
	if h["ece_calibrated"] > h["ece_raw"] {
		t.Fatalf("calibration made ECE worse: %v vs %v", h["ece_calibrated"], h["ece_raw"])
	}
	if r.Table.Rows() == 0 {
		t.Fatal("empty table")
	}
}

func TestE2Shapes(t *testing.T) {
	r := E2BeliefConvergence(2, testScale)
	h := r.Headline
	// Thompson-sampling regret per round decreases with experience.
	if h["regret_1000"] != 0 && h["regret_50"] < h["regret_1000"] {
		t.Fatalf("regret did not shrink: %v", h)
	}
	last := 0.0
	for k := range h {
		if strings.HasPrefix(k, "regret_") {
			last = h[k]
		}
	}
	if last < 0 {
		t.Fatal("negative regret")
	}
}

func TestE3Shapes(t *testing.T) {
	r := E3SLAPremium(3, testScale)
	h := r.Headline
	// Higher premiums buy lower breach rates.
	if h["breach_3.00"] >= h["breach_1.00"] {
		t.Fatalf("premium did not reduce breaches: %v", h)
	}
	// Interior optimum: the best premium is neither the floor nor the cap.
	if h["best_premium"] <= 1.0 || h["best_premium"] >= 3.0 {
		t.Fatalf("no interior optimum: best=%v", h["best_premium"])
	}
}

func TestE4Shapes(t *testing.T) {
	r := E4NegotiationTactics(4, testScale)
	h := r.Headline
	// Negotiation (any time-dependent tactic) should beat take-first on
	// buyer utility and at least match it on joint utility.
	if h["buyer_linear"] <= h["buyer_take-first"] {
		t.Fatalf("negotiating buyer lost to take-first: %v vs %v", h["buyer_linear"], h["buyer_take-first"])
	}
	if h["joint_linear"] < h["joint_take-first"]*0.95 {
		t.Fatalf("joint utility regressed: %v", h)
	}
	// Deal rates for negotiating tactics should be high.
	if h["deal_linear"] < 0.9 {
		t.Fatalf("deal rate = %v", h["deal_linear"])
	}
}

func TestE5Shapes(t *testing.T) {
	r := E5Subcontracting(5, testScale)
	h := r.Headline
	// Depth monotonically raises completeness...
	if !(h["completeness_0"] < h["completeness_1"] && h["completeness_1"] < h["completeness_2"]) {
		t.Fatalf("completeness not increasing with depth: %v", h)
	}
	if h["completeness_2"] != 1 {
		t.Fatalf("full depth should cover everything: %v", h["completeness_2"])
	}
	// ...but margins raise average per-part price.
	if h["avgprice_2"] <= h["avgprice_0"] {
		t.Fatalf("margins missing: %v", h)
	}
}

func TestE6Shapes(t *testing.T) {
	r := E6Personalization(6, testScale)
	h := r.Headline
	// Learned profiles improve with rounds and beat generic by round 20.
	if h["learned_20"] <= h["learned_0"] {
		t.Fatalf("no learning: %v -> %v", h["learned_0"], h["learned_20"])
	}
	if h["learned_20"] <= h["generic_20"] {
		t.Fatalf("personalized did not beat generic: %v vs %v", h["learned_20"], h["generic_20"])
	}
	// Oracle bounds learned from above (within noise).
	if h["learned_20"] > h["oracle_20"]*1.1 {
		t.Fatalf("learned exceeds oracle implausibly: %v vs %v", h["learned_20"], h["oracle_20"])
	}
}

func TestE7Shapes(t *testing.T) {
	r := E7ProfileMerge(7, testScale)
	h := r.Headline
	// All policies should produce usable profiles; dropping conflicts
	// trades recall for precision and must stay in a sane band.
	for k, v := range h {
		if v <= 0.3 || v > 1 {
			t.Fatalf("%s = %v out of band", k, v)
		}
	}
}

func TestE8Shapes(t *testing.T) {
	r := E8SocialRerank(8, testScale)
	h := r.Headline
	// Full affinity beats no-social on socially-correlated intent.
	if h["ndcg_full-affinity"] <= h["ndcg_no-social"] {
		t.Fatalf("social signal worthless: %v", h)
	}
}

func TestE9Shapes(t *testing.T) {
	r := E9CollabSharing(9, testScale)
	h := r.Headline
	// Work saved grows with team size (more overlap).
	if h["saved_8"] <= h["saved_2"] {
		t.Fatalf("sharing did not scale: %v", h)
	}
	if h["saved_8"] < 0.5 {
		t.Fatalf("8-member sharing too low: %v", h["saved_8"])
	}
	// The fused workspace should be mostly on-project.
	if h["precision_8"] < 0.6 {
		t.Fatalf("workspace precision = %v", h["precision_8"])
	}
}

func TestE10Shapes(t *testing.T) {
	r := E10ContextActivation(10, testScale)
	h := r.Headline
	if h["active_mean"] <= h["static_mean"] {
		t.Fatalf("context activation did not help: %v vs %v", h["active_mean"], h["static_mean"])
	}
}

func TestE11Shapes(t *testing.T) {
	r := E11FeedMatching(11, 0.3)
	h := r.Headline
	// The predicate index finds the linear scan's matches while holding
	// fewer subscriptions against each item, at every population.
	if h["mismatched_items"] != 0 {
		t.Fatalf("index and scan disagree on %v items", h["mismatched_items"])
	}
	populations := 0
	for k, scan := range h {
		if n, ok := strings.CutPrefix(k, "examined_linear_"); ok {
			populations++
			if ix := h["examined_indexed_"+n]; ix >= scan {
				t.Fatalf("%s subscriptions: index examines %v per item, scan %v", n, ix, scan)
			}
		}
	}
	if populations != 3 {
		t.Fatalf("%d populations measured, want 3: %v", populations, h)
	}
}

func TestE12Shapes(t *testing.T) {
	r := E12ScaleChurn(12, 0.4)
	h := r.Headline
	// Semantic routing uses fewer messages than flooding at equal size.
	if h["msgs_semantic_64_0"] >= h["msgs_flood_64_0"] {
		t.Fatalf("semantic not cheaper: %v vs %v", h["msgs_semantic_64_0"], h["msgs_flood_64_0"])
	}
	// Churn costs recall for flooding.
	if h["recall_flood_64_20"] > h["recall_flood_64_0"]+0.05 {
		t.Fatalf("churn should not raise recall: %v", h)
	}
	// Flood recall at zero churn should be high.
	if h["recall_flood_64_0"] < 0.6 {
		t.Fatalf("flood recall = %v", h["recall_flood_64_0"])
	}
}

func TestE13Shapes(t *testing.T) {
	r := E13MultiObjective(13, testScale)
	h := r.Headline
	if h["hv_pareto"] < h["hv_weighted"] {
		t.Fatalf("front hypervolume below single plan: %v", h)
	}
	if h["hv_pareto"] < h["hv_greedy"] {
		t.Fatalf("front below greedy: %v", h)
	}
}

func TestE14Shapes(t *testing.T) {
	r := E14Docstore(14, 0.3)
	h := r.Headline
	if h["recovered"] != h["expected"] {
		t.Fatalf("recovery lost docs: %v vs %v", h["recovered"], h["expected"])
	}
	if h["ingest_rate"] <= 0 || h["text_qps"] <= 0 || h["vector_qps"] <= 0 {
		t.Fatalf("rates: %v", h)
	}
}

func TestE15Shapes(t *testing.T) {
	r := E15AuctionVsBilateral(15, testScale)
	h := r.Headline
	// Auctions should match-or-beat best-of-k bilateral at far lower
	// message cost.
	if h["auction_4"] < h["bilateral_4"]*0.95 {
		t.Fatalf("auction underperformed: %v vs %v", h["auction_4"], h["bilateral_4"])
	}
	if h["auction_msgs_4"] >= h["bilateral_msgs_4"] {
		t.Fatalf("auction not cheaper: %v vs %v msgs", h["auction_msgs_4"], h["bilateral_msgs_4"])
	}
	// Competition helps: more sellers, weakly better buyer outcome.
	if h["auction_6"] < h["auction_1"]-1e-9 {
		t.Fatalf("competition hurt the buyer: %v vs %v", h["auction_6"], h["auction_1"])
	}
}

func TestE16Shapes(t *testing.T) {
	r := E16ReputationLearning(16, testScale)
	h := r.Headline
	// With a persistent ledger, late breach exposure falls below both its
	// own early phase and the memoryless late phase.
	if h["learning_late"] >= h["learning_early"] {
		t.Fatalf("learning did not reduce exposure: %v -> %v", h["learning_early"], h["learning_late"])
	}
	if h["learning_late"] >= h["memoryless_late"] {
		t.Fatalf("learning no better than memoryless: %v vs %v", h["learning_late"], h["memoryless_late"])
	}
}

func TestE17Shapes(t *testing.T) {
	r := E17LSHAblation(17, 0.3)
	h := r.Headline
	// More tables raise recall at fixed bits; more bits lower it.
	if h["recall_16x6"] <= h["recall_2x6"] {
		t.Fatalf("tables did not raise recall: %v vs %v", h["recall_16x6"], h["recall_2x6"])
	}
	if h["recall_2x14"] >= h["recall_2x6"] {
		t.Fatalf("bits did not lower recall: %v vs %v", h["recall_2x14"], h["recall_2x6"])
	}
}

func TestE18Shapes(t *testing.T) {
	r := E18DiscoveryVsRegistry(18, testScale)
	h := r.Headline
	// Overlay discovery inspects fewer candidates than the registry...
	if h["cands_overlay_16"] >= h["cands_registry_16"] {
		t.Fatalf("discovery not selective: %v vs %v", h["cands_overlay_16"], h["cands_registry_16"])
	}
	// ...while retaining most of the answer quality.
	if h["comp_overlay_16"] < h["comp_registry_16"]*0.6 {
		t.Fatalf("discovery quality collapsed: %v vs %v", h["comp_overlay_16"], h["comp_registry_16"])
	}
}

func TestE19Shapes(t *testing.T) {
	r := E19RiskProfiling(19, testScale)
	h := r.Headline
	// Recovery error shrinks with observations.
	if h["err_400"] >= h["err_20"] {
		t.Fatalf("risk fit did not improve: %v -> %v", h["err_20"], h["err_400"])
	}
	// Plan-choice agreement with the hidden attitude beats the neutral
	// default once enough choices are observed.
	if h["agree_400"] <= h["base_400"] {
		t.Fatalf("fitted attitude no better than neutral: %v vs %v", h["agree_400"], h["base_400"])
	}
	if h["agree_400"] < 0.7 {
		t.Fatalf("agreement too low: %v", h["agree_400"])
	}
}

func TestE20Shapes(t *testing.T) {
	r := E20TelemetryOverhead(20, testScale)
	h := r.Headline
	// Every issued query must be visible to the instruments, and the
	// histogram count must agree with the counter (snapshot coherence).
	if h["coherent"] != 1 {
		t.Fatalf("telemetry snapshot incoherent: asks=%v queries=%v", h["ask_count"], h["queries"])
	}
	if h["ask_count"] != h["queries"] {
		t.Fatalf("ask counter %v != issued %v", h["ask_count"], h["queries"])
	}
	if h["traces_kept"] == 0 {
		t.Fatalf("trace ring retained nothing")
	}
}

func TestE21Shapes(t *testing.T) {
	r := E21ParallelFanout(21, testScale)
	h := r.Headline
	// Parallel answers must match sequential ones item for item — the
	// fan-out is a latency optimization, never a semantic change.
	if h["deterministic"] != 1 {
		t.Fatal("parallel fan-out diverged from sequential answers")
	}
	// The market-visit claim: at 4 sources the trip costs like the
	// slowest stall, so the fan-out should at least halve p50 latency.
	if h["speedup_p50_4src"] < 2 {
		t.Fatalf("4-source fan-out speedup %.2f < 2", h["speedup_p50_4src"])
	}
	// More stalls, more win: 8 sources should beat 2 sources.
	if h["speedup_p50_8src"] <= h["speedup_p50_2src"] {
		t.Fatalf("speedup not growing with sources: %v", h)
	}
	// On the fat-tailed market the backup attempt must actually fire and
	// must rescue a substantial share of deadline abandonments (a hedged
	// source is only dropped when both attempts miss the deadline).
	if h["hedge_attempts"] == 0 {
		t.Fatal("no hedge ever fired on the fat-tailed market")
	}
	if h["hedge_rescued_frac"] < 0.25 {
		t.Fatalf("hedging rescued only %.0f%% of timeouts: off=%.3f on=%.3f",
			h["hedge_rescued_frac"]*100, h["hedge_off_timeout_rate"], h["hedge_on_timeout_rate"])
	}
}

func TestE22Shapes(t *testing.T) {
	r := E22LockFreeReads(22, testScale)
	h := r.Headline
	// The determinism contract is absolute: churn may never perturb a
	// hit or a score of an unchanged document set.
	if h["identical_under_churn"] != 1 {
		t.Fatal("reads under churn diverged from the quiescent result")
	}
	// Every put publishes an epoch, and the readers ran beside all of them,
	// or the identity above is vacuous.
	if h["epochs_published"] != h["writer_puts"] || h["writer_puts"] == 0 {
		t.Fatalf("writer published %v epochs over %v puts", h["epochs_published"], h["writer_puts"])
	}
	if h["reads_checked"] == 0 {
		t.Fatal("no read was checked")
	}
}

func TestE23Shapes(t *testing.T) {
	r := E23GroupCommit(23, testScale)
	h := r.Headline
	// The write-path determinism contract is absolute: batched windows must
	// leave the byte-identical WAL one-op windows leave, and recovery from
	// either log must rebuild identical stores.
	if h["byte_identical"] != 1 {
		t.Fatal("batched-window WAL diverged byte-wise from the one-op-window WAL")
	}
	if h["recovered_identical"] != 1 {
		t.Fatal("recovery from the two WALs produced different stores")
	}
}

func TestE24Shapes(t *testing.T) {
	r := E24DistributedTracing(24, testScale)
	h := r.Headline
	// Instrument coherence: every ask counted, every retained trace carries
	// a nonzero trace ID, and at least one exemplar landed in the latency
	// histogram.
	if h["coherent"] != 1 {
		t.Fatalf("tracing snapshot incoherent: %+v", h)
	}
	// The tail sampler's core contract on the public API: a burst big
	// enough to evict any FIFO ring must still retain every error trace.
	if h["errors_retained"] != h["burst_errors"] {
		t.Fatalf("error traces lost: kept %v of %v", h["errors_retained"], h["burst_errors"])
	}
	if h["traces_kept"] <= 0 || h["traces_kept"] > float64(telemetry.DefaultTraceCapacity) {
		t.Fatalf("retained traces outside budget: %v", h["traces_kept"])
	}
	if h["exemplar_buckets"] <= 0 {
		t.Fatalf("no exemplars recorded: %v", h["exemplar_buckets"])
	}
}

func TestE25Shapes(t *testing.T) {
	r := E25BlockMaxSearch(25, testScale)
	h := r.Headline
	// The contract, not a performance number: block-max must be
	// bit-identical to the exhaustive scorer, however many segments the
	// store holds. Any drift is a correctness bug.
	if h["identical"] != 1 {
		t.Fatalf("block-max diverged from exhaustive scoring: %+v", h)
	}
	// The cache-hit path is a byte-key lookup returning the shared hit
	// slice; it must retain nothing. Measured by malloc delta, so this is
	// exact, not statistical — except under the race detector, whose
	// instrumentation allocates on otherwise allocation-free paths.
	if !raceEnabled {
		if h["allocs_cache_hit"] != 0 {
			t.Fatalf("cache-hit SearchText allocates: %v allocs/op", h["allocs_cache_hit"])
		}
		// An uncached search retains exactly the returned []Hit; a couple
		// of mallocs of slack absorbs incidental runtime allocation.
		if h["allocs_uncached"] > 4 {
			t.Fatalf("uncached SearchText allocates %v/op, want ~1", h["allocs_uncached"])
		}
	}
	// Early termination must engage on the gradient corpus: rare terms pin
	// theta high and the common terms' tail blocks drop below it.
	if h["blocks_skip_ratio"] <= 0 {
		t.Fatalf("no postings blocks skipped: %+v", h)
	}
}

func TestE26Shapes(t *testing.T) {
	// Quarter scale: E26 seeds four TCP clusters (1+2+4+8 = 15 stores)
	// from the same corpus, so it is the suite's most setup-heavy
	// experiment; the shapes below hold from 8k documents up.
	r := E26ShardedScatter(26, testScale/4)
	h := r.Headline
	// The tentpole contract: at every shard count the merged scatter
	// top-k must be bit-identical to the monolithic store — same
	// documents, same order, float-identical scores.
	if h["identical"] != 1 {
		t.Fatalf("scatter diverged from the monolithic store: %+v", h)
	}
	// A healthy cluster never degrades an ask to partial.
	if h["partial_asks"] != 0 {
		t.Fatalf("partial asks on a healthy cluster: %+v", h)
	}
	// Statistics-driven planning must engage: on the workload's topical
	// ask mix most of an 8-shard cluster is pruned without a round-trip.
	if h["fanout_8"]+h["pruned_8"] != 8 {
		t.Fatalf("fanout %v + pruned %v != 8 shards", h["fanout_8"], h["pruned_8"])
	}
	if h["pruned_8"] <= 4 {
		t.Fatalf("pruning barely engaged at 8 shards: %+v", h)
	}
}

func TestE27Shapes(t *testing.T) {
	// Quarter scale: every count below is per frame or per ask, and
	// independent of how many of them ran.
	r := E27WirePath(27, testScale/4)
	h := r.Headline
	// The coalescer never issues more syscalls than frames.
	if h["rt_syscalls_per_frame"] <= 0 || h["rt_syscalls_per_frame"] > 1 {
		t.Fatalf("rt_syscalls_per_frame = %v, want in (0, 1]", h["rt_syscalls_per_frame"])
	}
	// Allocation shapes are deterministic off-race; the race runtime
	// instruments allocation paths, so gate these like E25 does.
	if !raceEnabled {
		// Single-pass AppendFrame staging into a reused buffer is the
		// tentpole: zero allocations per encoded frame.
		if h["encode_allocs"] != 0 {
			t.Fatalf("coalesced encode allocates: %v allocs/frame", h["encode_allocs"])
		}
		// The pooled FrameReader amortizes to zero.
		if h["decode_allocs"] != 0 {
			t.Fatalf("pooled decode allocates: %v allocs/frame", h["decode_allocs"])
		}
		// The acceptance bar: the TCP round-trip (process-wide, both sides)
		// stays under half the 71.9 allocs/op of the PR-9 stack it replaced.
		if h["rt_allocs"] > 35 {
			t.Fatalf("round-trip allocates %v/op, want <= 35", h["rt_allocs"])
		}
	}
}

func TestSuiteListsAllExperiments(t *testing.T) {
	suite := Suite()
	if len(suite) != 27 {
		t.Fatalf("suite size = %d", len(suite))
	}
	seen := map[string]bool{}
	for _, e := range suite {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("incomplete entry %+v", e.ID)
		}
	}
}

func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	results := RunAll(io.Discard, 42, 0.2, nil)
	if len(results) != 27 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Table.Rows() == 0 {
			t.Fatalf("%s produced an empty table", r.ID)
		}
	}
}

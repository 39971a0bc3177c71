package bench

import (
	"io"
	"slices"
	"strings"
	"testing"
)

// The tests here assert the qualitative shapes DESIGN.md §3 claims for the
// paper's pillars — they are the "does the reproduction hold" checks, run
// at reduced scale. Every assertion is on counts, ratios of counts, virtual
// spans and identity flags, none on a stopwatch: E21's market-trip claim is
// read in virtual time. The substrate this repo built is checked beside its
// code, in the package tests of docstore, shard, transport, wire, telemetry
// and core.

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

func TestE21Shapes(t *testing.T) {
	r := E21ParallelFanout(21, testScale)
	h := r.Headline
	// A second fresh world at the same seed must answer item for item
	// alike, with the same delivered QoS: the market is a function of its
	// seed.
	if h["deterministic"] != 1 {
		t.Fatal("a second world at the same seed answered differently")
	}
	// The market-trip claim, in virtual time: the trip costs as much as its
	// slowest stall, not the sum of the stalls, so at 4 sources its p50 is
	// at most half that of visiting the sources one after another.
	if h["speedup_p50_4src"] < 2 {
		t.Fatalf("4-source trip speedup %.2f < 2", h["speedup_p50_4src"])
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

// TestSuiteListsAllExperiments pins the suite to the paper's pillar
// experiments, in order: a dropped pillar fails here, and so does a
// substrate experiment (E14, E20, E22–E27) coming back.
func TestSuiteListsAllExperiments(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
		"E11", "E12", "E13", "E15", "E16", "E17", "E18", "E19", "E21"}
	var ids []string
	for _, e := range Suite() {
		ids = append(ids, e.ID)
		if e.Run == nil || e.Title == "" {
			t.Fatalf("incomplete entry %+v", e.ID)
		}
	}
	if !slices.Equal(ids, want) {
		t.Fatalf("suite = %v, want %v", ids, want)
	}
}

func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	results := RunAll(io.Discard, 42, 0.2, nil)
	if len(results) != 19 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Table.Rows() == 0 {
			t.Fatalf("%s produced an empty table", r.ID)
		}
	}
}

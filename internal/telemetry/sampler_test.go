package telemetry

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// synthTrace builds a finished-trace snapshot with a given duration/error.
func synthTrace(id uint64, dur time.Duration, err string) TraceSnapshot {
	s := TraceSnapshot{
		TraceID: TraceID(id).String(),
		Op:      "ask",
		Err:     err,
		Root:    SpanSnapshot{ID: SpanID(id + 1).String(), Name: "ask", DurNS: dur.Nanoseconds(), Err: err},
	}
	return s
}

// TestTailSamplerBeatsFIFO is the retention acceptance test: under a churn
// workload the tail sampler must keep 100% of error traces (error volume
// below its error-class cap) and cover more of the slowest decile than the
// FIFO ring it replaced.
func TestTailSamplerBeatsFIFO(t *testing.T) {
	const n = 2000
	ts := newTailSampler(DefaultTraceCapacity, 42)
	fifo := make([]TraceSnapshot, 0, DefaultTraceCapacity) // the old ring

	type rec struct {
		id  string
		dur int64
		err bool
	}
	var all []rec
	var errIDs []string
	rng := uint64(99)
	for i := 0; i < n; i++ {
		rng += 0x9E3779B97F4A7C15
		x := mix64(rng)
		// Log-ish heavy tail: mostly 1–10ms, occasionally 50–500ms.
		dur := time.Duration(1+x%10) * time.Millisecond
		if x%37 == 0 {
			dur = time.Duration(50+x%450) * time.Millisecond
		}
		errStr := ""
		// ~1 error per 150 traces — 13 total, under the error-class cap.
		if x%150 == 0 {
			errStr = "provider unreachable"
		}
		snap := synthTrace(uint64(i+1)<<8, dur, errStr)
		ts.push(snap)
		fifo = append(fifo, snap)
		if len(fifo) > DefaultTraceCapacity {
			fifo = fifo[1:]
		}
		all = append(all, rec{id: snap.TraceID, dur: int64(dur), err: errStr != ""})
		if errStr != "" {
			errIDs = append(errIDs, snap.TraceID)
		}
	}
	if len(errIDs) == 0 || len(errIDs) >= ts.errCap {
		t.Fatalf("workload produced %d errors, want 1..%d — tune the generator", len(errIDs), ts.errCap-1)
	}

	retained := map[string]bool{}
	snaps := ts.recent()
	if len(snaps) > DefaultTraceCapacity {
		t.Fatalf("sampler exceeded budget: %d > %d", len(snaps), DefaultTraceCapacity)
	}
	for _, s := range snaps {
		retained[s.TraceID] = true
	}
	for _, id := range errIDs {
		if !retained[id] {
			t.Fatalf("error trace %s evicted — tail sampler must keep all errors", id)
		}
	}

	fifoRetained := map[string]bool{}
	for _, s := range fifo {
		fifoRetained[s.TraceID] = true
	}

	// Slowest decile: top 10% of all traces by duration.
	byDur := append([]rec(nil), all...)
	for i := 1; i < len(byDur); i++ { // insertion sort, descending dur
		for j := i; j > 0 && byDur[j].dur > byDur[j-1].dur; j-- {
			byDur[j], byDur[j-1] = byDur[j-1], byDur[j]
		}
	}
	decile := byDur[:n/10]
	var samplerHits, fifoHits int
	for _, r := range decile {
		if retained[r.id] {
			samplerHits++
		}
		if fifoRetained[r.id] {
			fifoHits++
		}
	}
	if samplerHits <= fifoHits {
		t.Fatalf("slowest-decile coverage: sampler %d/%d vs FIFO %d/%d — sampler must win",
			samplerHits, len(decile), fifoHits, len(decile))
	}
	t.Logf("slowest-decile coverage: sampler %d/%d, FIFO %d/%d; errors retained %d/%d",
		samplerHits, len(decile), fifoHits, len(decile), len(errIDs), len(errIDs))

	// The same contract on the public API: traces started, failed and
	// finished through a registry, a burst big enough to evict any FIFO of
	// the budget, with rare failures spread through it.
	reg := NewRegistrySeeded(24)
	burst, wantErrs := 400, 0
	for i := 0; i < burst; i++ {
		tr := reg.StartTrace("probe", fmt.Sprintf("burst-%d", i))
		if i%97 == 0 && wantErrs < 12 { // 97 is coprime with the burst
			tr.Fail(errors.New("provider unreachable"))
			wantErrs++
		}
		tr.Finish()
	}
	keptErrs := 0
	for _, tr := range reg.Snapshot().Traces {
		if tr.Err != "" {
			keptErrs++
		}
	}
	if keptErrs != wantErrs {
		t.Fatalf("error traces lost: kept %v of %v", keptErrs, wantErrs)
	}
}

// TestTailSamplerReservoirKeepsNormalTraces checks the third class: fast,
// healthy traces still appear in the retained set (the reservoir), so the
// sampler doesn't show operators only pathologies.
func TestTailSamplerReservoirKeepsNormalTraces(t *testing.T) {
	ts := newTailSampler(DefaultTraceCapacity, 7)
	for i := 0; i < 5000; i++ {
		dur := time.Duration(1+i%5) * time.Millisecond
		if i%100 == 0 {
			dur = time.Second // fixed slow class
		}
		ts.push(synthTrace(uint64(i+1), dur, ""))
	}
	var normal int
	for _, s := range ts.recent() {
		if s.Root.DurNS < int64(time.Second) {
			normal++
		}
	}
	if normal == 0 {
		t.Fatal("reservoir retained no normal traces")
	}
	if normal > ts.restCap+ts.slowCap {
		t.Fatalf("too many normal traces: %d", normal)
	}
}

func TestTailSamplerByID(t *testing.T) {
	ts := newTailSampler(DefaultTraceCapacity, 1)
	snap := synthTrace(0xabcdef, 5*time.Second, "") // slowest: certainly kept
	ts.push(snap)
	for i := 0; i < 100; i++ {
		ts.push(synthTrace(uint64(i+1), time.Millisecond, ""))
	}
	got := ts.byID(TraceID(0xabcdef))
	if len(got) != 1 || got[0].TraceID != snap.TraceID {
		t.Fatalf("byID = %+v", got)
	}
	if out := ts.byID(TraceID(0xffff)); out != nil {
		t.Fatalf("byID of unknown trace = %+v", out)
	}
}

// TestTailSamplerNewestFirst checks recent() ordering across classes.
func TestTailSamplerNewestFirst(t *testing.T) {
	ts := newTailSampler(DefaultTraceCapacity, 5)
	for i := 0; i < 10; i++ {
		err := ""
		if i%2 == 0 {
			err = fmt.Sprintf("err %d", i)
		}
		ts.push(synthTrace(uint64(i+1), time.Duration(i)*time.Millisecond, err))
	}
	snaps := ts.recent()
	if len(snaps) != 10 {
		t.Fatalf("under budget everything is kept, got %d", len(snaps))
	}
	if snaps[0].TraceID != TraceID(10).String() {
		t.Fatalf("newest first violated: %+v", snaps[0])
	}
}

package shard

import "time"

// internal/shard is inside the wallclock analyzer's kernel scope (the
// router's pruning math must stay deterministic), but the router is also a
// real-network client whose latency histograms genuinely need the wall
// clock (RPC deadlines and the hedge delay are kept by transport.Call, from
// the moment a request is staged). Every clock read funnels through these
// helpers so each use carries its justification in one place — the values
// feed telemetry only and never influence scoring, pruning, or merge order.

// now reads the wall clock for latency telemetry.
func now() time.Time {
	return time.Now() //lint:allow wallclock latency stopwatch for telemetry histograms; never reaches scoring or merge state
}

// since measures elapsed wall time for telemetry.
func since(t time.Time) time.Duration {
	return time.Since(t) //lint:allow wallclock latency stopwatch for telemetry histograms; never reaches scoring or merge state
}

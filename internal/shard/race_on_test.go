//go:build race

package shard

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates on paths a normal build does
// not, so allocation ceilings are not read under it.
const raceEnabled = true

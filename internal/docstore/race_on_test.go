//go:build race

package docstore

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops entries at random and the pooled
// search scratch is reallocated on paths that are allocation-free in a
// normal build.
const raceEnabled = true

//go:build race

package transport

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates on paths a normal build does
// not, so allocation counts are not read under it.
const raceEnabled = true

//go:build race

package core

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops entries at random and pooled search
// scratch is reallocated on paths a normal build serves from the pool.
const raceEnabled = true

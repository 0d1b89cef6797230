// Package sched is randsrc testdata: the deterministic core must draw
// every random number from a seeded *rand.Rand threaded in from
// configuration, never the process-global source and never a source
// seeded off the wall clock.
package sched

import (
	"math/rand"
	"time"
)

// pickVictim draws from the process-global source: flagged.
func pickVictim(n int) int {
	return rand.Intn(n) // want "draws from the process-global source"
}

// jitter seeds off the wall clock: flagged at the time.Now call. The
// rand.New wrapping an already-built source is itself sanctioned.
func jitter() *rand.Rand {
	src := rand.NewSource(time.Now().UnixNano()) // want "a wall-clock seed cannot be recorded and replayed"
	return rand.New(src)
}

// nested is one finding, not two, even though the wall-clock seed is
// visible from both constructors.
func nested() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "a wall-clock seed cannot be recorded and replayed"
}

// spec carries a seed the way faults.Plan and density.Spec do.
type spec struct{ Seed int64 }

// specs sets a Seed field from the wall clock, in a composite literal
// and by assignment: both flagged.
func specs() spec {
	s := spec{Seed: time.Now().UnixNano()} // want "Seed derived from time.Now"
	s.Seed = time.Now().UnixNano()         // want "Seed derived from time.Now"
	return s
}

// seeded threads an explicit fixed-seed source and draws through its
// methods: the sanctioned pattern.
func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(100)
}

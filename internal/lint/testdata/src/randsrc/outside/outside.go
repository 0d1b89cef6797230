// Package outside is randsrc testdata: packages outside the module's
// deterministic core (tools, generators) may use the global source, but
// no package sets a Seed field from the wall clock.
package outside

import (
	"math/rand"
	"time"

	"preemptsched/internal/faults"
)

// shuffle is not flagged: the package is outside preemptsched/internal.
func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// plans: a literal seed is reproducible; a wall-clock one is flagged in a
// composite literal and in an assignment.
func plans() faults.Plan {
	p := faults.Plan{Seed: 42, RPCErrorRate: 0.05}
	bad := faults.Plan{
		Seed: time.Now().UnixNano(), // want "Seed derived from time.Now"
	}
	_ = bad
	p.Seed = time.Since(time.Time{}).Nanoseconds() // want "Seed derived from time.Since"
	return p
}

// config is any struct with a Seed field: the rule needs no type table.
type config struct{ Seed int64 }

func configs() []config {
	c := config{Seed: 1}
	c.Seed = int64(time.Until(time.Time{})) // want "Seed derived from time.Until"
	// A map key named Seed is a variable, not a field: not flagged.
	Seed := int64(7)
	_ = map[int64]int64{Seed: time.Now().Unix()}
	return []config{c, {Seed: time.Now().Unix()}} // want "Seed derived from time.Now"
}

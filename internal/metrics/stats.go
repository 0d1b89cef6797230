// Package metrics provides the measurement plumbing shared by the
// simulator, the mini-YARN framework, and the experiment harness: sample
// distributions with quantiles and CDFs, running means, and plain-text
// table rendering for experiment output.
package metrics

import (
	"math"
	"sort"
)

// Dist retains every sample to answer quantile and CDF queries. Experiment
// populations here are at most a few hundred thousand points, so exact
// retention is cheaper than sketching and keeps results deterministic.
type Dist struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (d *Dist) Add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

// N returns the number of observations.
func (d *Dist) N() int { return len(d.xs) }

// Mean returns the sample mean, or 0 with no observations.
func (d *Dist) Mean() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range d.xs {
		sum += x
	}
	return sum / float64(len(d.xs))
}

// Tally is a running sum and count: all a mean needs, in constant space.
// It sums in the order samples are added, as Dist.Mean does, so the two
// agree bit for bit on the same samples.
type Tally struct {
	Sum float64
	N   int
}

// Add counts one observation.
func (t *Tally) Add(x float64) {
	t.Sum += x
	t.N++
}

// Mean returns the sample mean, or 0 with no observations.
func (t Tally) Mean() float64 {
	if t.N == 0 {
		return 0
	}
	return t.Sum / float64(t.N)
}

func (d *Dist) sort() {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between closest ranks. It returns 0 with no observations.
func (d *Dist) Quantile(q float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	d.sort()
	if q <= 0 {
		return d.xs[0]
	}
	if q >= 1 {
		return d.xs[len(d.xs)-1]
	}
	pos := q * float64(len(d.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return d.xs[lo]
	}
	frac := pos - float64(lo)
	return d.xs[lo]*(1-frac) + d.xs[hi]*frac
}

// CDFPoint is one (value, cumulative fraction) pair.
type CDFPoint struct {
	X float64
	F float64
}

// CDF returns the empirical CDF sampled at k evenly spaced cumulative
// fractions (1/k, 2/k, ..., 1). k must be positive.
func (d *Dist) CDF(k int) []CDFPoint {
	if len(d.xs) == 0 || k <= 0 {
		return nil
	}
	d.sort()
	pts := make([]CDFPoint, 0, k)
	for i := 1; i <= k; i++ {
		f := float64(i) / float64(k)
		pts = append(pts, CDFPoint{X: d.Quantile(f), F: f})
	}
	return pts
}

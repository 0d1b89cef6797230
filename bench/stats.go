package main

import "preemptsched/internal/metrics"

func dist(xs []float64) *metrics.Dist {
	d := new(metrics.Dist)
	for _, x := range xs {
		d.Add(x)
	}
	return d
}

// quantile returns the q-th quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 { return dist(xs).Quantile(q) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 { return dist(xs).Mean() }

// ratio is a/b, 0 when b is 0: an idle layer reads 0, never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

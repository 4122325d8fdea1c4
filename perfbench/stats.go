package main

import (
	"fmt"
	"math"
	"sort"
)

// Percentiles are always computed from raw samples: the program's
// obs.Histogram uses power-of-two buckets, so its quantiles snap to bucket
// edges (a p50 of exactly 2⁻¹¹ s) and cannot resolve a 25% regression.

// dist is a sorted copy of raw samples.
type dist []float64

func newDist(samples []float64) dist {
	d := append(dist(nil), samples...)
	sort.Float64s(d)
	return d
}

// quantile returns the q-quantile by the nearest-rank rule: the smallest
// sample with at least q of the samples at or below it. NaN when empty.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(d))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(d) {
		rank = len(d)
	}
	return d[rank-1]
}

// beyond counts the samples strictly greater than v.
func (d dist) beyond(v float64) int {
	return len(d) - sort.Search(len(d), func(i int) bool { return d[i] > v })
}

// mean returns the arithmetic mean, NaN when empty.
func (d dist) mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range d {
		s += x
	}
	return s / float64(len(d))
}

// median of a small set of per-repetition figures.
func median(xs []float64) float64 { return newDist(xs).quantile(0.5) }

// minBeyond is the number of samples a reported percentile must leave above
// itself before the figure is trusted.
const minBeyond = 10

// describe reports a percentile with its support — sample count and
// samples beyond it — for the human-readable report, flagging thin tails.
// The samples are multiplied by scale for display in unit.
func (d dist) describe(name string, q, scale float64, unit string) string {
	v := d.quantile(q)
	n := d.beyond(v)
	note := ""
	if n < minBeyond {
		note = fmt.Sprintf(" (WARNING: fewer than %d samples beyond)", minBeyond)
	}
	return fmt.Sprintf("%s p%g = %.4g %s: %d samples, %d beyond%s", name, q*100, v*scale, unit, len(d), n, note)
}

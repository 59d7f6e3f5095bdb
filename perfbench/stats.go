package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must leave
// beyond it; a percentile with fewer is noise.
const minTail = 10

// dist is a sorted sample of one timing, in the unit it was recorded in.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// at returns the q-quantile by nearest rank: the smallest sample with at
// least a q share of the samples at or below it. An empty sample is 0.
func (d dist) at(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[min(max(i, 0), len(d)-1)]
}

func (d dist) p50() float64 { return d.at(0.5) }

// tail returns the highest percentile, capped at p99, that leaves at
// least minTail samples beyond it, and that percentile as a share. With
// minTail samples or fewer no percentile qualifies and tail returns the
// maximum with share 1.
func (d dist) tail() (v, share float64) {
	n := len(d)
	switch {
	case n == 0:
		return 0, 0
	case n >= 100*minTail:
		return d.at(0.99), 0.99
	case n > minTail:
		return d[n-1-minTail], float64(n-minTail) / float64(n)
	}
	return d[n-1], 1
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d {
		s += x
	}
	return s / float64(len(d))
}

// median of an unsorted sample.
func median(xs []float64) float64 { return newDist(xs).p50() }

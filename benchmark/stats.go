package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if xs[lo] == xs[hi] {
		return xs[lo] // also keeps +Inf (failed samples) from becoming NaN
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// calmMedian is the median of xs over the entries whose hypervisor steal
// share (steals, index for index) was at most maxSteal, or, if fewer than
// half were, over the least stolen half.
func calmMedian(xs, steals []float64) float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steals[idx[a]] < steals[idx[b]] })
	keep := (len(idx) + 1) / 2
	for keep < len(idx) && steals[idx[keep]] <= maxSteal {
		keep++
	}
	kept := make([]float64, keep)
	for i, k := range idx[:keep] {
		kept[i] = xs[k]
	}
	return median(kept)
}

// netOfSteal is a wall time less the share of it the hypervisor stole
// from the host: the time the host actually had. With one CPU of two
// busy it takes off only half of what that CPU lost, so it corrects too
// little rather than too much.
func netOfSteal(wall, steal float64) float64 { return wall * (1 - steal) }

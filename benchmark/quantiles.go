package main

import "sort"

// quartiles returns the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) gives them (the exclusive method),
// so the spreads this program prints are the ones the benchmark driver
// computes from its own runs. One sample has no spread: all three are that
// sample. Empty input gives zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle sample (mean of the middle two on even counts).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// undisturbed estimates a time from repeated trials of identical work on a
// shared machine: the first quartile. What a neighbour does to a trial only
// ever adds time, in stretches of seconds, so the faster trials are the ones
// that measured the program; across ten runs the first quartile spread half
// as much as the median did, and the minimum was no steadier.
func undisturbed(xs []float64) float64 {
	q1, _, _ := quartiles(xs)
	return q1
}

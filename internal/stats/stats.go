// Package stats provides the summary statistics the paper's evaluation
// reports: means, geometric means, and 95% confidence intervals over
// repeated benchmark runs, plus baseline normalization (Figs. 4-7).
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// tCritical95 holds two-sided 95% Student-t critical values indexed by
// degrees of freedom (1-30); beyond 30 the normal approximation is used.
var tCritical95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the 95% confidence interval of the mean.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	df := n - 1
	t := 1.960
	if df < len(tCritical95) {
		t = tCritical95[df]
	}
	return t * StdDev(xs) / math.Sqrt(float64(n))
}

// GeoMean returns the geometric mean of positive xs.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Sample is a set of repeated measurements of one quantity.
type Sample struct {
	Name   string
	Values []float64
}

// Mean returns the sample mean.
func (s Sample) Mean() float64 { return Mean(s.Values) }

// CI returns the 95% confidence half-width.
func (s Sample) CI() float64 { return CI95(s.Values) }

// Concat merges per-rep partial samples, collected by rep index, into one
// sample whose value order follows the parts' order — not the order the
// reps finished in. It is the merge step of the parallel experiment
// scheduler: each rep task fills parts[rep], and Concat(name, parts...)
// reassembles the exact sample a serial run would have produced.
func Concat(name string, parts ...Sample) Sample {
	out := Sample{Name: name}
	for _, p := range parts {
		out.Values = append(out.Values, p.Values...)
	}
	return out
}

// Normalized expresses a measurement relative to a baseline as a percent
// overhead: positive means slower/worse than baseline (Figs. 4-7).
type Normalized struct {
	Name string
	// OverheadPct is 100*(value/baseline - 1).
	OverheadPct float64
	// CIPct is the 95% CI half-width propagated to percent.
	CIPct float64
}

// Normalize computes baseline-normalized overhead with error propagation
// (first-order, treating baseline and value as independent).
func Normalize(value, baseline Sample) Normalized {
	vb, bb := value.Mean(), baseline.Mean()
	n := Normalized{Name: value.Name}
	if bb == 0 {
		n.OverheadPct = math.NaN()
		return n
	}
	n.OverheadPct = 100 * (vb/bb - 1)
	// Relative error propagation for a ratio.
	var rel float64
	if vb != 0 {
		rv := value.CI() / vb
		rb := baseline.CI() / bb
		rel = math.Sqrt(rv*rv + rb*rb)
	}
	n.CIPct = 100 * (vb / bb) * rel
	return n
}

func (n Normalized) String() string {
	return fmt.Sprintf("%-12s %+6.2f%% ±%.2f%%", n.Name, n.OverheadPct, n.CIPct)
}

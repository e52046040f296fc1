package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram is a fixed-bucket log-linear latency histogram, HDR-style:
// values are bucketed by binary order of magnitude, each octave split into
// subBuckets linear sub-buckets. Below 16 ns a bucket is one nanosecond
// (values truncate to it); from 16 ns up to 2^38 ns (~275 s) a bucket is at
// most 1/subBuckets of its lower edge wide, so a quantile, reported as its
// bucket's midpoint, is within 1/(2*subBuckets) = 1/32 of the true value.
// Values at or above 2^38 ns clamp into the last bucket. The bucket layout
// is a pure function of the value's bit pattern — no floats — so two
// histograms recording the same values land counts in the same buckets on
// every platform, and Merge is plain counter addition. That makes per-rep
// histograms safe to fan out on the experiment pool and merge by rep index
// into the exact histogram a serial run would have produced.
type Histogram struct {
	counts [numBuckets]int64
	total  int64
	sum    float64
	max    float64
}

const (
	// subBucketBits splits each binary octave into 2^subBucketBits linear
	// sub-buckets; at 16 per octave a midpoint is within 1/32 of any value
	// of its bucket.
	subBucketBits = 4
	subBuckets    = 1 << subBucketBits
	// maxExponent caps the tracked range: values at or above
	// 2^(maxExponent+subBucketBits) = 2^38 ns (~275 s) clamp into the last
	// bucket.
	maxExponent = 34
	numBuckets  = (maxExponent + 1) * subBuckets
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// bucketOf maps a non-negative integer value (nanoseconds) to its bucket.
func bucketOf(v uint64) int {
	if v < subBuckets {
		// The first octaves are exact: one bucket per integer value.
		return int(v)
	}
	exp := bits.Len64(v) - 1 - subBucketBits // octave above the exact range
	if exp > maxExponent-1 {
		return numBuckets - 1
	}
	sub := int(v>>uint(exp)) & (subBuckets - 1)
	return (exp+1)*subBuckets + sub
}

// bucketMid returns a representative value (upper edge midpoint) for a
// bucket, the value quantiles report.
func bucketMid(b int) float64 {
	if b < subBuckets {
		return float64(b)
	}
	exp := b/subBuckets - 1
	sub := b % subBuckets
	lo := (uint64(subBuckets) + uint64(sub)) << uint(exp)
	width := uint64(1) << uint(exp)
	return float64(lo) + float64(width)/2
}

// Record adds one value (nanoseconds; negatives clamp to zero).
func (h *Histogram) Record(v float64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(uint64(v))]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Merge adds other's counts into h. Counts add bucket-wise, so merging
// per-rep histograms in rep order reproduces the serial histogram exactly.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the arithmetic mean of recorded values (exact, not
// bucket-quantized).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the exact largest recorded value (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns the value at quantile q in [0,1], quantized to bucket
// midpoints (within 1/32 of the true value from 16 ns to 2^38 ns; see
// Histogram). Empty histograms return 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the q-th value, 1-based, nearest-rank definition.
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return h.max
}

// P50, P99 and P999 are the quantiles the SLO tables report.
func (h *Histogram) P50() float64  { return h.Quantile(0.50) }
func (h *Histogram) P99() float64  { return h.Quantile(0.99) }
func (h *Histogram) P999() float64 { return h.Quantile(0.999) }

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0fns p50=%.0f p99=%.0f p99.9=%.0f max=%.0f",
		h.total, h.Mean(), h.P50(), h.P99(), h.P999(), h.max)
}

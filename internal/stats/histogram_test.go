package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for v := 0; v < subBuckets; v++ {
		h.Record(float64(v))
	}
	if h.Count() != subBuckets {
		t.Fatalf("count = %d, want %d", h.Count(), subBuckets)
	}
	// The first octaves are exact: the median of 0..15 by nearest-rank is 7.
	if got := h.Quantile(0.5); got != 7 {
		t.Fatalf("p50 = %v, want 7", got)
	}
	if h.Quantile(0) != 0 || h.Max() != subBuckets-1 {
		t.Fatalf("q0/max = %v/%v", h.Quantile(0), h.Max())
	}
}

// The bounds the bucket layout guarantees (see Histogram).
const (
	// quantileErr: a bucket from 16 ns on is at most 1/subBuckets of its
	// lower edge wide, and Quantile reports its midpoint.
	quantileErr = 1.0 / (2 * subBuckets)
	// clampEdge (2^38 ns, ~275 s): values at or above it share the last
	// bucket, which holds [31*2^33, 2^38) ns in its own right.
	clampEdge = 1 << (maxExponent + subBucketBits)
)

// TestHistogramMatchesExactSort holds Quantile and Merge to an exact sort of
// the recorded values, over random streams that reach past the clamp edge and
// land on octave edges (where a midpoint is furthest from the value): a
// quantile is within quantileErr of the nearest-rank value, or the last
// bucket's midpoint past the clamp edge; and histograms merged from a random
// split hold the histogram of the whole.
func TestHistogramMatchesExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(3000)
		vals := make([]float64, n)
		whole := NewHistogram()
		parts := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram()}
		for i := range vals {
			v := math.Exp2(4 + rng.Float64()*34) // log-uniform over [16 ns, 2^38 ns)
			switch rng.Intn(8) {
			case 0:
				v = math.Floor(v)
			case 1:
				v = math.Exp2(float64(4 + rng.Intn(34))) // an octave's lower edge
			case 2:
				v = clampEdge * (1 + 3*rng.Float64())
			}
			vals[i] = v
			whole.Record(v)
			parts[rng.Intn(len(parts))].Record(v)
		}
		merged := NewHistogram()
		for _, p := range parts {
			merged.Merge(p)
		}
		if merged.counts != whole.counts || merged.total != whole.total || merged.max != whole.max {
			t.Fatalf("trial %d: merged parts %v differ from the whole %v", trial, merged, whole)
		}

		slices.Sort(vals)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1, rng.Float64()} {
			want := vals[max(int(math.Ceil(q*float64(n))), 1)-1]
			for _, h := range []*Histogram{whole, merged} {
				got := h.Quantile(q)
				if want >= clampEdge {
					if got != bucketMid(numBuckets-1) {
						t.Fatalf("trial %d: q%v of a clamped value %.0f = %.0f, want the last bucket's midpoint", trial, q, want, got)
					}
				} else if rel := math.Abs(got-want) / want; rel > quantileErr {
					t.Fatalf("trial %d: q%v = %.1f, exact %.1f: relative error %.4f > 1/%d", trial, q, got, want, rel, 2*subBuckets)
				}
			}
		}
	}

	// The bound is attained: an octave's lower edge reports its bucket's
	// midpoint, half a width (1/32 of the value) above it.
	h := NewHistogram()
	h.Record(16)
	if got := h.Quantile(0.5); got != 16.5 {
		t.Errorf("p50 of {16} = %v, want 16.5", got)
	}
	// The clamp edge: nothing below 2^38 ns shares the last bucket but its
	// own range, everything from 2^38 ns on does.
	for v, want := range map[uint64]int{
		31<<33 - 1: numBuckets - 2, 31 << 33: numBuckets - 1,
		clampEdge - 1: numBuckets - 1, clampEdge: numBuckets - 1, 1 << 50: numBuckets - 1,
	} {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
	if bucketOf(1<<34) == bucketOf(1<<35) {
		t.Error("values around 2^34 ns share a bucket: the range ends there")
	}
}

func TestHistogramMergeEquivalence(t *testing.T) {
	// Recording a stream into one histogram and recording its halves into
	// two then merging must produce identical state — the property the
	// parallel experiment scheduler relies on.
	rng := rand.New(rand.NewSource(11))
	whole, a, b := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 0; i < 5000; i++ {
		v := rng.Float64() * 1e7
		whole.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	merged := NewHistogram()
	merged.Merge(a)
	merged.Merge(b)
	if merged.counts != whole.counts || merged.total != whole.total ||
		merged.max != whole.max {
		t.Fatalf("merged state differs from whole-stream state:\n  merged %v\n  whole  %v", merged, whole)
	}
	// Sums differ only by float addition order.
	if rel := math.Abs(merged.sum-whole.sum) / whole.sum; rel > 1e-12 {
		t.Fatalf("merged sum off by %v", rel)
	}
	// And merging in a fixed order is itself deterministic.
	again := NewHistogram()
	again.Merge(a)
	again.Merge(b)
	if *again != *merged {
		t.Fatalf("repeat merge differs")
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatalf("empty histogram not zero-valued: %v", h)
	}
	h.Record(-5) // clamps to 0
	h.Record(1e18)
	if h.Count() != 2 || h.Quantile(0) != 0 {
		t.Fatalf("clamp: %v", h)
	}
	if got := h.Quantile(1); got <= 0 {
		t.Fatalf("max-bucket quantile = %v", got)
	}
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestStdDev(t *testing.T) {
	if !almost(StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), math.Sqrt(32.0/7)) {
		t.Errorf("StdDev = %v", StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("single-sample stddev should be 0")
	}
}

func TestCI95KnownValue(t *testing.T) {
	// n=5, sd=1: CI = 2.776/sqrt(5).
	xs := []float64{-1.26049, -0.43104, 0, 0.43104, 1.26049}
	sd := StdDev(xs)
	want := 2.776 * sd / math.Sqrt(5)
	if !almost(CI95(xs), want) {
		t.Errorf("CI95 = %v, want %v", CI95(xs), want)
	}
	if CI95([]float64{1}) != 0 {
		t.Error("CI of single sample should be 0")
	}
}

func TestCI95LargeN(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 2) // alternating 0/1
	}
	got := CI95(xs)
	want := 1.960 * StdDev(xs) / 10
	if !almost(got, want) {
		t.Errorf("CI95 large-n = %v, want %v", got, want)
	}
}

func TestGeoMean(t *testing.T) {
	if !almost(GeoMean([]float64{1, 100}), 10) {
		t.Errorf("GeoMean = %v", GeoMean([]float64{1, 100}))
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Error("GeoMean with nonpositive input should be NaN")
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
}

func TestGeoMeanBetweenMinAndMax(t *testing.T) {
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := GeoMean(xs)
		min, max := xs[0], xs[0]
		for _, x := range xs {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		return g >= min-1e-9 && g <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	base := Sample{Name: "base", Values: []float64{100, 100, 100}}
	fast := Sample{Name: "fast", Values: []float64{99, 99, 99}}
	n := Normalize(fast, base)
	if !almost(n.OverheadPct, -1) {
		t.Errorf("OverheadPct = %v, want -1", n.OverheadPct)
	}
	if n.CIPct != 0 {
		t.Errorf("CIPct = %v, want 0 for zero-variance inputs", n.CIPct)
	}
	slow := Sample{Name: "slow", Values: []float64{104, 106}}
	n2 := Normalize(slow, base)
	if !almost(n2.OverheadPct, 5) {
		t.Errorf("OverheadPct = %v, want 5", n2.OverheadPct)
	}
	if n2.CIPct <= 0 {
		t.Error("CIPct should be positive for noisy input")
	}
	if got := Normalize(fast, Sample{Values: []float64{0}}); !math.IsNaN(got.OverheadPct) {
		t.Error("zero baseline should produce NaN")
	}
}

func TestNormalizedString(t *testing.T) {
	n := Normalized{Name: "redis-a", OverheadPct: 0.25, CIPct: 0.5}
	if s := n.String(); s == "" {
		t.Error("empty String")
	}
}

func TestConcat(t *testing.T) {
	parts := []Sample{
		{Values: []float64{1}},
		{Values: []float64{2, 3}},
		{},
		{Values: []float64{4}},
	}
	got := Concat("merged", parts...)
	if got.Name != "merged" {
		t.Errorf("Name = %q", got.Name)
	}
	want := []float64{1, 2, 3, 4}
	if len(got.Values) != len(want) {
		t.Fatalf("Values = %v, want %v", got.Values, want)
	}
	for i := range want {
		if got.Values[i] != want[i] {
			t.Fatalf("Values = %v, want %v (order must follow parts, not arrival)", got.Values, want)
		}
	}
}

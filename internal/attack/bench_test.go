package attack

import (
	"math/rand"
	"testing"
)

// The benchmarks run the attack plane's three per-pattern costs on a VM
// target of the repository benchmark's hammer-contain geometry (8 KiB rows,
// DIMM A): filling a row, scanning it, and one refresh window of a
// Blacksmith pattern.

func benchTarget(b *testing.B) (*VMTarget, []RowRef) {
	b.Helper()
	vt := &VMTarget{VM: bootRowVM(b, rowCases()[0].g, 32)}
	return vt, vt.Rows()
}

func BenchmarkFillRow(b *testing.B) {
	vt, rows := benchTarget(b)
	b.SetBytes(int64(rowCases()[0].g.RowBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vt.FillRow(rows[i&63], 0xA5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckRow(b *testing.B) {
	vt, rows := benchTarget(b)
	for _, r := range rows[:64] {
		if err := vt.FillRow(r, 0xA5); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(rowCases()[0].g.RowBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cs, err := vt.CheckRow(rows[i&63], 0xA5); err != nil || len(cs) != 0 {
			b.Fatal(cs, err)
		}
	}
}

// hammerCounter counts the Hammer calls that reach the target it wraps.
type hammerCounter struct {
	Target
	calls int
}

func (c *hammerCounter) Hammer(r RowRef, count int, openNs int64) error {
	c.calls++
	return c.Target.Hammer(r, count, openNs)
}

// BenchmarkFuzzerWindow is one window of one pattern: the pattern's Hammer
// calls up to the activation budget, then the window end. ns/op divided by
// the reported calls/op is the cost of a Hammer call. An untimed first window
// counts the calls and commits every flip the pattern causes, so the timed
// ones append nothing to the flip log.
func BenchmarkFuzzerWindow(b *testing.B) {
	vt, rows := benchTarget(b)
	cfg := DefaultFuzzerConfig()
	f := NewFuzzer(cfg)
	p := RandomPattern(rand.New(rand.NewSource(1)), cfg.MaxActsPerWindow)
	run := runs(rows)[0]
	warm := &hammerCounter{Target: vt}
	if err := f.hammerWindow(warm, run, 0, p); err != nil {
		b.Fatal(err)
	}
	vt.EndWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.hammerWindow(vt, run, 0, p); err != nil {
			b.Fatal(err)
		}
		vt.EndWindow()
	}
	b.ReportMetric(float64(warm.calls), "calls/op")
}

package attack

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dram"
	"repro/internal/geometry"
)

// The benchmarks run the attack plane's three per-pattern costs on a VM
// target of the repository benchmark's hammer-contain geometry (8 KiB rows,
// DIMM A): filling a row, scanning it, and one refresh window of a
// Blacksmith pattern. BenchmarkFuzzerRun is a whole campaign as the
// benchmark's hammer-contain runs one, on a fresh target.

func benchTarget(tb testing.TB) (*VMTarget, []RowRef) {
	tb.Helper()
	vt := &VMTarget{VM: bootRowVM(tb, rowCases()[0].g, 32)}
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

// campaignConfig is a hammer-contain campaign on DIMM A whose activation
// budget stays below the flip threshold: nothing is appended to a flip log,
// so every run allocates the same, and what it allocates is the fuzzer's own.
func campaignConfig() FuzzerConfig {
	return FuzzerConfig{
		Patterns:          3,
		WindowsPerPattern: 2,
		MaxActsPerWindow:  dram.ProfileA().MaxActsPerWindow / 20,
		FillPattern:       0xAA,
		Seed:              1,
	}
}

// runCampaign runs one campaign on a fresh target over vt's VM and bank, as
// hammer-contain does (a target lists its rows once), and requires it to flip
// nothing.
func runCampaign(tb testing.TB, f *Fuzzer, vt *VMTarget) {
	rep, err := f.Run(&VMTarget{VM: vt.VM, BankIndex: vt.BankIndex})
	if err != nil || rep.PatternsTried == 0 || len(rep.Corruptions) != 0 {
		tb.Fatalf("campaign: %+v, %v; want patterns tried and nothing flipped", rep, err)
	}
}

func BenchmarkFuzzerRun(b *testing.B) {
	vt, _ := benchTarget(b)
	f := NewFuzzer(campaignConfig())
	runCampaign(b, f, vt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCampaign(b, f, vt)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes a call
// of f allocates over runs calls, after a warm-up call, on one P. It takes the
// least of three such means, since whatever else the process allocates
// meanwhile only adds.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for j := 0; j < runs; j++ {
			f()
		}
		runtime.ReadMemStats(&m1)
		least = min(least, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(runs))
	}
	return least
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestFuzzerRunAllocationBound pins what one campaign allocates, in objects
// and bytes: the target's row list and its runs, each sized once, the
// generator, the patterns, and the report. The bounds are the measured
// values; an append-grown row list or schedule, or a sort.Slice sort, breaks
// them.
func TestFuzzerRunAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool, fmt's printer cache among them, drops a random quarter of Puts")
	}
	const objectBound, byteBound = 30, 32144
	vt, _ := benchTarget(t)
	f := NewFuzzer(campaignConfig())
	run := func() { runCampaign(t, f, vt) }
	objects, bytes := testing.AllocsPerRun(10, run), bytesPerRun(10, run)
	if objects > objectBound || bytes > byteBound {
		t.Errorf("Fuzzer.Run allocated %v objects and %v bytes, bound %d and %d", objects, bytes, objectBound, byteBound)
	}
}

// TestRunsAllocatesOnce pins runs to one allocation however many runs it
// cuts. The hammer-contain benchmark's targets cut into several runs, so an
// append-grown list of them made several objects a campaign; the one-run
// guest of TestFuzzerRunAllocationBound does not show that.
func TestRunsAllocatesOnce(t *testing.T) {
	a, b := RowRef{Bank: geometry.BankID{Bank: 0}}, RowRef{Bank: geometry.BankID{Bank: 1}}
	var rows []RowRef
	for _, run := range []struct {
		base RowRef
		from int
		n    int
	}{{a, 0, 4}, {a, 10, 3}, {a, 20, 1}, {b, 0, 2}, {b, 5, 6}} {
		for r := run.from; r < run.from+run.n; r++ {
			ref := run.base
			ref.Row = r
			rows = append(rows, ref)
		}
	}
	if got := runs(rows); len(got) != 5 {
		t.Fatalf("cut %d runs, want 5", len(got))
	}
	if n := testing.AllocsPerRun(10, func() { runs(rows) }); n != 1 {
		t.Errorf("runs allocated %v objects for 5 runs, want 1", n)
	}
}

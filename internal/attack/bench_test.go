package attack

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
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

// TestFuzzerRunAllocationBound pins what one campaign allocates, in objects
// and bytes: the target, its row list and its runs, each sized once, the
// generator, and each pattern's schedule and name. The bounds are the
// measured values; an append-grown row list or schedule, a name built
// piecewise, or a sort.Slice sort, breaks them.
func TestFuzzerRunAllocationBound(t *testing.T) {
	const objectBound, byteBound = 12, 31176
	vt, _ := benchTarget(t)
	f := NewFuzzer(campaignConfig())
	run := func() { runCampaign(t, f, vt) }
	objects, bytes := testing.AllocsPerRun(10, run), bytesPerRun(10, run)
	if objects > objectBound || bytes > byteBound {
		t.Errorf("Fuzzer.Run allocated %v objects and %v bytes, bound %d and %d", objects, bytes, objectBound, byteBound)
	}
}

// flipTarget is a VMTarget whose rows at multiples of three come back with
// two bytes flipped: FillRow plants the flips after the fill. A campaign on it
// takes the corruption path with the same corruptions every run, whatever the
// DRAM's own flip log does.
type flipTarget struct{ *VMTarget }

func (t flipTarget) FillRow(r RowRef, pat byte) error {
	var chunk [rowChunk]byte
	row := patternRow(&chunk, t.VM.Hypervisor().Memory().Geometry().RowBytes, pat)
	if r.Row%3 == 0 {
		row[0] ^= 0x10
		row[len(row)/2+r.Row%(len(row)/2)] ^= 0x01
	}
	return t.VM.WriteGuestRow(r.Addr, row)
}

// flipCampaign runs f's campaign on a fresh flipTarget over vt's VM
// and bank.
func flipCampaign(f *Fuzzer, vt *VMTarget) (Report, error) {
	return f.Run(flipTarget{&VMTarget{VM: vt.VM, BankIndex: vt.BankIndex}})
}

// TestFlippingCampaignAllocationBound pins the corruption path, which
// TestFuzzerRunAllocationBound's campaign never takes: beyond that campaign's
// objects, one list a dirty row check and the report's list, grown in place.
// A per-pattern list copied into the report, or a dirty row's list grown by
// append, breaks the bound.
func TestFlippingCampaignAllocationBound(t *testing.T) {
	const objectBound = 46
	vt, _ := benchTarget(t)
	f := NewFuzzer(campaignConfig())
	rep, err := flipCampaign(f, vt)
	if err != nil || rep.EffectivePatterns == 0 || len(rep.Corruptions) == 0 {
		t.Fatalf("campaign: %+v, %v; want corruptions", rep, err)
	}
	if objects := testing.AllocsPerRun(10, func() { flipCampaign(f, vt) }); objects > objectBound {
		t.Errorf("Fuzzer.Run allocated %v objects finding %d corruptions, bound %d", objects, len(rep.Corruptions), objectBound)
	}
}

// failAfter fails the CheckRow call after the first ok ones.
type failAfter struct {
	Target
	ok int
}

func (t *failAfter) CheckRow(r RowRef, pat byte) ([]Corruption, error) {
	if t.ok == 0 {
		return nil, errors.New("check failed")
	}
	t.ok--
	return t.Target.CheckRow(r, pat)
}

// TestFuzzerRunErrorKeepsEarlierCorruptions: a campaign whose check fails in
// the middle of a pattern reports what the patterns before it found, exactly
// as the shorter campaign that stops before the failing pattern does — nil
// included — and nothing of the failing pattern's earlier checks.
func TestFuzzerRunErrorKeepsEarlierCorruptions(t *testing.T) {
	vt, _ := benchTarget(t)
	cfg := campaignConfig()
	cfg.Patterns = 8
	for ok := 0; ok < 60; ok += 7 {
		got, err := NewFuzzer(cfg).Run(&failAfter{Target: flipTarget{&VMTarget{VM: vt.VM}}, ok: ok})
		if err == nil {
			t.Fatalf("%d checks before the failure: the campaign did not fail", ok)
		}
		// The campaign of the patterns that ran before the failing one.
		var want Report
		for n := 0; n <= cfg.Patterns; n++ {
			short := cfg
			short.Patterns = n
			rep, err := NewFuzzer(short).Run(flipTarget{&VMTarget{VM: vt.VM}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.PatternsTried == got.PatternsTried-1 {
				want = rep
			}
		}
		want.PatternsTried++
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d checks before the failure: reported %+v, want %+v", ok, got, want)
		}
	}
}

// TestRandomPatternAllocatesScheduleAndName pins a drawn pattern to two
// objects, its schedule and its name, whatever branches the draw takes.
func TestRandomPatternAllocatesScheduleAndName(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if n := testing.AllocsPerRun(1000, func() { RandomPattern(rng, 1_200_000) }); n != 2 {
		t.Errorf("RandomPattern allocated %v objects a draw, want 2", n)
	}
}

// TestMismatchesAllocation pins a row scan to nothing for a clean row and to
// one list, made at its length, for a dirty one.
func TestMismatchesAllocation(t *testing.T) {
	row := make([]byte, 8*geometry.KiB)
	for i := range row {
		row[i] = 0xA5
	}
	if n := testing.AllocsPerRun(100, func() { mismatches(row, 0xA5, 0, 1024) }); n != 0 {
		t.Errorf("clean row: %v objects, want 0", n)
	}
	for _, i := range []int{0, 1, 7, 63, 64, 4000, 8191} {
		row[i] ^= 0xFF
	}
	if cs := mismatches(row, 0xA5, 0, 1024); len(cs) != 7 || cap(cs) != 7 {
		t.Fatalf("dirty row: %d corruptions in a list of %d, want 7 in 7", len(cs), cap(cs))
	}
	if n := testing.AllocsPerRun(100, func() { mismatches(row, 0xA5, 0, 1024) }); n != 1 {
		t.Errorf("dirty row: %v objects, want 1", n)
	}
}

// TestPhysTargetRowsAllocatesOnce pins a physical target's row list to one
// object, made at the count of row bases its ranges hold.
func TestPhysTargetRowsAllocatesOnce(t *testing.T) {
	_, target := physEnv(t, dram.ProfileF())
	n := testing.AllocsPerRun(10, func() {
		target.rows = nil
		target.Rows()
	})
	if rows := target.Rows(); n != 1 || cap(rows) != len(rows) {
		t.Errorf("Rows allocated %v objects for %d rows in a list of %d, want 1 and a full list", n, len(rows), cap(rows))
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

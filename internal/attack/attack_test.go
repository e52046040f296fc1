package attack

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/subarray"
)

func testGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets:         2,
		CoresPerSocket:  4,
		DIMMsPerSocket:  1,
		RanksPerDIMM:    2,
		BanksPerRank:    8,
		RowsPerBank:     2048,
		RowBytes:        8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

// physEnv builds memory plus a PhysTarget over one subarray group.
func physEnv(t *testing.T, prof dram.Profile) (*dram.Memory, *PhysTarget) {
	t.Helper()
	g := testGeometry()
	mapper, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := dram.NewMemory(g, mapper, []dram.Profile{prof}, nil)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := subarray.NewLayout(g, mapper, prof.Transforms)
	if err != nil {
		t.Fatal(err)
	}
	grp := layout.Group(0, 1)
	var ranges []PhysRange
	for _, r := range grp.Ranges {
		ranges = append(ranges, PhysRange{Start: r.Start, End: r.End})
	}
	return mem, &PhysTarget{Mem: mem, Ranges: ranges}
}

func TestPhysTargetRowsAreConsecutiveGroupRows(t *testing.T) {
	_, target := physEnv(t, dram.ProfileF())
	rows := target.Rows()
	g := testGeometry()
	if len(rows) != g.RowsPerSubarray {
		t.Fatalf("rows = %d, want %d (one subarray group)", len(rows), g.RowsPerSubarray)
	}
	rs := runs(rows)
	if len(rs) != 1 {
		t.Fatalf("runs = %d, want 1 contiguous run", len(rs))
	}
	for i, r := range rows {
		if r.Row != rows[0].Row+i {
			t.Fatalf("row %d not consecutive: %d vs base %d", i, r.Row, rows[0].Row)
		}
		if r.Row/g.RowsPerSubarray != 1 {
			t.Fatalf("row %d outside group 1", r.Row)
		}
	}
}

func TestFillCheckRoundTrip(t *testing.T) {
	_, target := physEnv(t, dram.ProfileF())
	r := target.Rows()[10]
	if err := target.FillRow(r, 0x5A); err != nil {
		t.Fatal(err)
	}
	cs, err := target.CheckRow(r, 0x5A)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 0 {
		t.Fatalf("clean row reported %d corruptions", len(cs))
	}
	if cs, err = target.CheckRow(r, 0xFF); err != nil || len(cs) == 0 {
		t.Fatal("wrong-pattern check found nothing")
	}
}

func TestDoubleSidedDefeatedByTRRButNotWithoutIt(t *testing.T) {
	noTRR := dram.ProfileF()
	noTRR.VulnerableRowFraction = 1
	noTRR.Transforms = addr.TransformConfig{}
	mem, target := physEnv(t, noTRR)
	f := NewFuzzer(DefaultFuzzerConfig())
	rows := target.Rows()
	p := DoubleSided(200, 300) // 60000 acts per aggressor
	cs, err := f.HammerPattern(target, rows, 100, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) == 0 {
		t.Fatal("double-sided found nothing without TRR")
	}
	_ = mem

	withTRR := dram.ProfileA()
	withTRR.Transforms = addr.TransformConfig{}
	_, target2 := physEnv(t, withTRR)
	cs2, err := f.HammerPattern(target2, target2.Rows(), 100, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs2) != 0 {
		t.Fatalf("double-sided bypassed TRR: %d corruptions", len(cs2))
	}
}

func TestManySidedBypassesTRR(t *testing.T) {
	prof := dram.ProfileA()
	prof.VulnerableRowFraction = 1
	prof.Transforms = addr.TransformConfig{}
	_, target := physEnv(t, prof)
	f := NewFuzzer(DefaultFuzzerConfig())
	// 4 decoys pin profile A's 4-entry sampler; synchronizing the round
	// to the TRR period phase-locks every refresh event into the decoys.
	p := ManySided(1, 4, 400, 100, 600).Synchronized(dram.ProfileA().TRRInterval)
	cs, err := f.HammerPattern(target, target.Rows(), 50, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) == 0 {
		t.Fatal("many-sided pattern failed to bypass TRR")
	}
}

func TestRowPressPatternFlipsWithFewActivations(t *testing.T) {
	prof := dram.ProfileF()
	prof.VulnerableRowFraction = 1
	prof.Transforms = addr.TransformConfig{}
	_, target := physEnv(t, prof)
	f := NewFuzzer(DefaultFuzzerConfig())
	// 2500 activations per aggressor, far below the 20000 threshold, but
	// 50 µs dwell per activation doubles the per-ACT disturbance.
	p := RowPressPattern(50, 150, 50_000)
	cs, err := f.HammerPattern(target, target.Rows(), 10, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) == 0 {
		t.Fatal("RowPress dwell pattern found nothing")
	}
	// The same activation count with no dwell is harmless.
	_, fresh := physEnv(t, prof)
	p2 := DoubleSided(50, 150)
	cs2, err := f.HammerPattern(fresh, fresh.Rows(), 10, p2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs2) != 0 {
		t.Fatal("plain low-count hammering should not flip")
	}
}

func TestFuzzerFindsFlipsOnEveryEvaluationDIMM(t *testing.T) {
	// Table 3 precondition: the extended Blacksmith fuzzer produces bit
	// flips on all six DIMM profiles despite TRR and internal transforms.
	for _, prof := range dram.EvaluationProfiles() {
		prof := prof
		t.Run("DIMM-"+prof.Name, func(t *testing.T) {
			_, target := physEnv(t, prof)
			cfg := DefaultFuzzerConfig()
			cfg.Patterns = 40
			rep, err := NewFuzzer(cfg).Run(target)
			if err != nil {
				t.Fatal(err)
			}
			if rep.EffectivePatterns == 0 {
				t.Fatalf("no effective patterns on DIMM %s (%d tried)", prof.Name, rep.PatternsTried)
			}
			if rep.BestPattern == "" || len(rep.Corruptions) == 0 {
				t.Fatalf("report inconsistent: %+v", rep)
			}
		})
	}
}

func TestFuzzerDeterministic(t *testing.T) {
	prof := dram.ProfileF()
	run := func() Report {
		_, target := physEnv(t, prof)
		rep, err := NewFuzzer(DefaultFuzzerConfig()).Run(target)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.PatternsTried != b.PatternsTried || a.EffectivePatterns != b.EffectivePatterns ||
		len(a.Corruptions) != len(b.Corruptions) {
		t.Errorf("fuzzer not deterministic: %+v vs %+v", a, b)
	}
}

func TestFuzzerStaysInsideItsRanges(t *testing.T) {
	// A fuzzer pinned to one subarray group must only corrupt that group
	// (§7.1 hammering containment, attacker's ground truth view).
	prof := dram.ProfileD()
	mem, target := physEnv(t, prof)
	cfg := DefaultFuzzerConfig()
	cfg.Patterns = 30
	rep, err := NewFuzzer(cfg).Run(target)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EffectivePatterns == 0 {
		t.Fatal("fuzzer found nothing")
	}
	g := testGeometry()
	for _, f := range mem.Flips() {
		if got := f.MediaRow / g.RowsPerSubarray; got != 1 {
			t.Errorf("flip escaped subarray group 1: %v (group %d)", f, got)
		}
	}
}

func TestVMTargetFuzzing(t *testing.T) {
	prof := dram.ProfileA()
	prof.VulnerableRowFraction = 1
	prof.Transforms = addr.TransformConfig{}
	h, err := core.Boot(core.Config{
		Geometry:      testGeometry(),
		Profiles:      []dram.Profile{prof},
		EPTProtection: ept.GuardRows,
	}, core.ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(core.Process{KVMPrivileged: true},
		core.VMSpec{Name: "attacker", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	target := &VMTarget{VM: vm}
	rows := target.Rows()
	if len(rows) == 0 {
		t.Fatal("VM target found no rows")
	}
	// All rows must be inside the VM's domain.
	for _, r := range rows[:10] {
		hpa, err := vm.Translate(r.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(hpa) {
			t.Fatalf("row addr %#x resolves outside the VM domain", r.Addr)
		}
	}
	cfg := DefaultFuzzerConfig()
	cfg.Patterns = 30
	rep, err := NewFuzzer(cfg).Run(target)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EffectivePatterns == 0 {
		t.Fatal("VM-confined fuzzer found no flips")
	}
	// Omniscient check: every flip stayed in the attacker's domain.
	for _, f := range h.Memory().Flips() {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(pa) {
			t.Errorf("flip escaped VM domain: %v", f)
		}
	}
}

func TestPatternAccounting(t *testing.T) {
	p := ManySided(2, 4, 400, 100, 10)
	if p.MinRun != 4+2+3*2 {
		t.Errorf("MinRun = %d", p.MinRun)
	}
	if got, want := p.ActsPerWindow(), (4*400+4*100)*10; got != want {
		t.Errorf("ActsPerWindow = %d, want %d", got, want)
	}
	if DoubleSided(100, 5).MinRun != 3 {
		t.Error("DoubleSided MinRun wrong")
	}
}

func TestHammerPatternRejectsShortRun(t *testing.T) {
	_, target := physEnv(t, dram.ProfileF())
	f := NewFuzzer(DefaultFuzzerConfig())
	rows := target.Rows()[:2]
	if _, err := f.HammerPattern(target, rows, 0, DoubleSided(10, 1)); err == nil {
		t.Error("pattern on too-short run accepted")
	}
}

func TestRunsSplitsOnGaps(t *testing.T) {
	g := testGeometry()
	b := geometry.BankID{Socket: 0}
	rows := []RowRef{
		{Bank: b, Row: 10}, {Bank: b, Row: 11}, {Bank: b, Row: 13},
		{Bank: geometry.BankID{Socket: 0, Bank: 1}, Row: 14},
	}
	rs := runs(rows)
	if len(rs) != 3 {
		t.Fatalf("runs = %d, want 3", len(rs))
	}
	_ = g
}

func TestHalfDoubleFlipsAtDistanceTwo(t *testing.T) {
	// Half-Double [83]: far aggressors at distance 2 flip the victim even
	// when the near rows alone stay below threshold. Distance-2 weight
	// 0.25 on profile F (threshold 20000): far rows at 90000 acts
	// contribute 2*0.25*90000 = 45000; near rows at 4000 contribute
	// 2*4000 = 8000; together 53000 >= 20000, near alone would not flip.
	prof := dram.ProfileF()
	prof.VulnerableRowFraction = 1
	prof.Transforms = addr.TransformConfig{}
	_, target := physEnv(t, prof)
	f := NewFuzzer(DefaultFuzzerConfig())
	p := HalfDouble(300, 40, 100) // per window: far 30000, near 4000
	rows := target.Rows()
	cs, err := f.HammerPattern(target, rows, 50, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) == 0 {
		t.Fatal("half-double pattern produced no corruption")
	}
	// The near rows alone (same counts) stay below threshold.
	_, fresh := physEnv(t, prof)
	pNear := Pattern{
		Name: "near-only",
		Schedule: []Batch{
			{RunIndex: 1, Count: 40},
			{RunIndex: 3, Count: 40},
		},
		Rounds: 100, MinRun: 5,
	}
	cs2, err := f.HammerPattern(fresh, fresh.Rows(), 50, pNear)
	if err != nil {
		t.Fatal(err)
	}
	// The victim (index 2) must not be corrupted by near rows alone;
	// rows adjacent to the near aggressors may flip, so filter to the
	// victim row.
	victim := fresh.Rows()[52]
	for _, c := range cs2 {
		if c.Addr >= victim.Addr && c.Addr < victim.Addr+uint64(8*geometry.KiB) {
			t.Fatalf("near-only hammering flipped the distance-2 victim")
		}
	}
}

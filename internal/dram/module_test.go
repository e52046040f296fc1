package dram

import (
	"bytes"
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

// WeakCellCount reports how many weak cells a half-row holds.
func (m *Module) WeakCellCount(bank geometry.BankID, side addr.Side, mediaRow int) int {
	bs := m.bank(bank)
	virt, _ := m.internalTarget(bs, mediaRow, side)
	bits := m.g.RowBytes / 2 * 8
	return len(weakCells(nil, newCellBitset(bits), m.prof, m.socket, m.dimm, bank, side, virt, bits))
}

func tinyGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets:         1,
		CoresPerSocket:  4,
		DIMMsPerSocket:  1,
		RanksPerDIMM:    2,
		BanksPerRank:    2,
		RowsPerBank:     2048,
		RowBytes:        8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

// testProfile is fully deterministic: every half-row is vulnerable, no TRR,
// no internal transforms.
func testProfile() Profile {
	return Profile{
		Name: "test", HammerThreshold: 1000, BlastRadius: 2,
		DistanceWeights: []float64{1.0, 0.25}, VulnerableRowFraction: 1.0,
		WeakCellsPerRow: 2, RowPressFactor: 0.02, TRRTableSize: 0,
		TRRInterval: 0, MaxActsPerWindow: defaultMaxActs,
		Transforms: addr.TransformConfig{}, Seed: 1,
	}
}

func testModule(t *testing.T, prof Profile) *Module {
	t.Helper()
	m, err := NewModule(tinyGeometry(), prof, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func bank0() geometry.BankID { return geometry.BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 0} }

// fillRows writes a pattern into a set of rows so both fail directions of
// weak cells are observable.
func fillRows(t *testing.T, m *Module, b geometry.BankID, rows []int, pat byte) {
	t.Helper()
	g := tinyGeometry()
	data := bytes.Repeat([]byte{pat}, g.RowBytes)
	for _, r := range rows {
		if err := m.WriteRow(b, r, 0, data); err != nil {
			t.Fatal(err)
		}
	}
}

func flipRows(flips []Flip) map[int]bool {
	rows := make(map[int]bool)
	for _, f := range flips {
		rows[f.MediaRow] = true
	}
	return rows
}

func TestHammeringFlipsNeighboursOnly(t *testing.T) {
	m := testModule(t, testProfile())
	b := bank0()
	agg := 1000
	fillRows(t, m, b, []int{agg - 3, agg - 2, agg - 1, agg, agg + 1, agg + 2, agg + 3}, 0xAA)

	if err := m.ActivateRow(b, agg, 2000, 0); err != nil {
		t.Fatal(err)
	}
	flips := m.Flips()
	if len(flips) == 0 {
		t.Fatal("no flips after hammering past threshold")
	}
	for _, f := range flips {
		d := f.MediaRow - agg
		if d < 0 {
			d = -d
		}
		if d == 0 || d > 2 {
			t.Errorf("flip at distance %d from aggressor: %v", d, f)
		}
		if f.AggressorMediaRow != agg {
			t.Errorf("flip attributes wrong aggressor: %v", f)
		}
	}
	// Distance-1 victims on both sides must flip (every row vulnerable).
	rows := flipRows(flips)
	if !rows[agg-1] || !rows[agg+1] {
		t.Errorf("distance-1 victims missing from flips: %v", rows)
	}
}

func TestNoFlipsBelowThreshold(t *testing.T) {
	m := testModule(t, testProfile())
	b := bank0()
	if err := m.ActivateRow(b, 100, 999, 0); err != nil {
		t.Fatal(err)
	}
	if flips := m.Flips(); len(flips) != 0 {
		t.Fatalf("flips below threshold: %v", flips)
	}
	// One more activation crosses it for distance-1 victims.
	if err := m.ActivateRow(b, 100, 1, 0); err != nil {
		t.Fatal(err)
	}
	if flips := m.Flips(); len(flips) == 0 {
		t.Fatal("no flips at exactly the threshold")
	}
}

func TestSubarrayBoundaryIsolation(t *testing.T) {
	// §2.5: rows in different subarrays are electrically isolated.
	m := testModule(t, testProfile())
	b := bank0()
	agg := 511 // last row of subarray 0
	fillRows(t, m, b, []int{509, 510, 511, 512, 513}, 0xFF)
	if err := m.ActivateRow(b, agg, 100_000, 0); err != nil {
		t.Fatal(err)
	}
	rows := flipRows(m.Flips())
	if !rows[510] || !rows[509] {
		t.Errorf("in-subarray victims did not flip: %v", rows)
	}
	if rows[512] || rows[513] {
		t.Errorf("flips crossed the subarray boundary: %v", rows)
	}
}

func TestDistanceTwoNeedsMoreActivations(t *testing.T) {
	// weight 0.25 at distance 2: threshold*4 activations needed.
	m := testModule(t, testProfile())
	b := bank0()
	agg := 1000
	if err := m.ActivateRow(b, agg, 3999, 0); err != nil {
		t.Fatal(err)
	}
	rows := flipRows(m.Flips())
	if rows[agg-2] || rows[agg+2] {
		t.Fatalf("distance-2 victims flipped too early: %v", rows)
	}
	if err := m.ActivateRow(b, agg, 1, 0); err != nil {
		t.Fatal(err)
	}
	rows = flipRows(m.Flips())
	if !rows[agg-2] || !rows[agg+2] {
		t.Fatalf("distance-2 victims did not flip at 4x threshold: %v", rows)
	}
}

func TestRefreshResetsAccumulation(t *testing.T) {
	m := testModule(t, testProfile())
	b := bank0()
	if err := m.ActivateRow(b, 50, 800, 0); err != nil {
		t.Fatal(err)
	}
	m.Refresh()
	if err := m.ActivateRow(b, 50, 800, 0); err != nil {
		t.Fatal(err)
	}
	if flips := m.Flips(); len(flips) != 0 {
		t.Fatalf("disturbance survived a refresh: %v", flips)
	}
	if m.Window() != 1 {
		t.Errorf("Window = %d, want 1", m.Window())
	}
}

func TestFlipsPersistAcrossRefresh(t *testing.T) {
	m := testModule(t, testProfile())
	b := bank0()
	fillRows(t, m, b, []int{99, 101}, 0xFF)
	if err := m.ActivateRow(b, 100, 2000, 0); err != nil {
		t.Fatal(err)
	}
	var before [16]byte
	if err := m.ReadRow(b, 101, 0, before[:]); err != nil {
		t.Fatal(err)
	}
	m.Refresh()
	var after [16]byte
	if err := m.ReadRow(b, 101, 0, after[:]); err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Error("refresh altered corrupted data; flips must persist")
	}
}

func TestAggressorSelfNeverFlips(t *testing.T) {
	m := testModule(t, testProfile())
	b := bank0()
	if err := m.ActivateRow(b, 200, 500_000, 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Flips() {
		if f.MediaRow == 200 {
			t.Fatalf("aggressor row flipped itself: %v", f)
		}
	}
}

func TestActivationBudgetEnforced(t *testing.T) {
	prof := testProfile()
	prof.MaxActsPerWindow = 1000
	m := testModule(t, prof)
	b := bank0()
	if err := m.ActivateRow(b, 10, 1000, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.ActivateRow(b, 11, 1, 0); err == nil {
		t.Fatal("activation budget not enforced")
	}
	m.Refresh()
	if err := m.ActivateRow(b, 11, 1000, 0); err != nil {
		t.Fatalf("budget did not reset on refresh: %v", err)
	}
}

func TestRowPressLowersEffectiveThreshold(t *testing.T) {
	// §2.5 RowPress: long open times disturb more per activation. With
	// RowPressFactor 0.02/µs and 50 µs dwell, each ACT counts 2x.
	m := testModule(t, testProfile())
	b := bank0()
	if err := m.ActivateRow(b, 300, 500, 50_000); err != nil {
		t.Fatal(err)
	}
	rows := flipRows(m.Flips())
	if !rows[299] || !rows[301] {
		t.Fatalf("RowPress dwell did not amplify disturbance: %v", rows)
	}

	m2 := testModule(t, testProfile())
	if err := m2.ActivateRow(b, 300, 500, 0); err != nil {
		t.Fatal(err)
	}
	if len(m2.Flips()) != 0 {
		t.Fatal("500 plain activations should stay below a 1000 threshold")
	}
}

func TestActivateRejectsBadArguments(t *testing.T) {
	m := testModule(t, testProfile())
	b := bank0()
	if err := m.ActivateRow(b, -1, 1, 0); err == nil {
		t.Error("negative row accepted")
	}
	if err := m.ActivateRow(b, tinyGeometry().RowsPerBank, 1, 0); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := m.ActivateRow(b, 0, 0, 0); err == nil {
		t.Error("zero count accepted")
	}
	other := geometry.BankID{Socket: 0, DIMM: 1, Rank: 0, Bank: 0}
	if err := m.ActivateRow(other, 0, 1, 0); err == nil {
		t.Error("foreign bank accepted")
	}
}

func TestTRRDefeatsDoubleSidedHammering(t *testing.T) {
	// A classic double-sided pattern (two aggressors around one victim)
	// is caught by the TRR sampler: both aggressors are always tracked,
	// so their victims are refreshed every TRR interval.
	prof := testProfile()
	prof.TRRTableSize = 4
	prof.TRRInterval = 500
	m := testModule(t, prof)
	b := bank0()
	// Victim 1000; aggressors 999 and 1001; interleave small batches.
	for i := 0; i < 100; i++ {
		if err := m.ActivateRow(b, 999, 50, 0); err != nil {
			t.Fatal(err)
		}
		if err := m.ActivateRow(b, 1001, 50, 0); err != nil {
			t.Fatal(err)
		}
	}
	if flips := m.Flips(); len(flips) != 0 {
		t.Fatalf("TRR failed to stop double-sided hammering: %v", flips)
	}
}

func TestDecoyPatternBypassesTRR(t *testing.T) {
	// Blacksmith-class evasion (§2.5): heavy decoy rows pin the TRR
	// sampler table so moderately-hammered aggressors escape refresh.
	prof := testProfile()
	prof.TRRTableSize = 4
	prof.TRRInterval = 5000
	m := testModule(t, prof)
	b := bank0()
	decoys := []int{100, 110, 120, 130}
	agg := []int{1000, 1002}
	for i := 0; i < 60; i++ {
		for _, d := range decoys {
			if err := m.ActivateRow(b, d, 400, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range agg {
			if err := m.ActivateRow(b, a, 100, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	rows := flipRows(m.Flips())
	if !rows[1001] {
		t.Fatalf("decoy pattern failed to flip the shared victim; flips: %v", rows)
	}
}

func TestFlipsFollowInternalTransformsWithinSubarray(t *testing.T) {
	// With mirroring/inversion/scrambling on a power-of-2 subarray size,
	// victims land at transformed in-subarray positions — never outside
	// the aggressor's subarray (§6).
	prof := testProfile()
	prof.Transforms = addr.AllTransforms()
	m := testModule(t, prof)
	b := geometry.BankID{Socket: 0, DIMM: 0, Rank: 1, Bank: 0} // odd rank: mirrored
	agg := 520                                                 // subarray 1 ([512,1024))
	if err := m.ActivateRow(b, agg, 500_000, 0); err != nil {
		t.Fatal(err)
	}
	flips := m.Flips()
	if len(flips) == 0 {
		t.Fatal("no flips with transforms enabled")
	}
	for _, f := range flips {
		if f.MediaRow/512 != 1 {
			t.Errorf("flip escaped aggressor's subarray: %v", f)
		}
	}
}

func TestWeakCellDeterminism(t *testing.T) {
	m := testModule(t, testProfile())
	b := bank0()
	for row := 0; row < 64; row++ {
		c1 := m.WeakCellCount(b, addr.SideA, row)
		c2 := m.WeakCellCount(b, addr.SideA, row)
		if c1 != c2 {
			t.Fatalf("weak cell derivation not deterministic for row %d", row)
		}
		if c1 != testProfile().WeakCellsPerRow {
			t.Fatalf("row %d has %d weak cells, want %d (fraction=1)", row, c1, testProfile().WeakCellsPerRow)
		}
	}
}

func TestVulnerableRowFraction(t *testing.T) {
	prof := testProfile()
	prof.VulnerableRowFraction = 0.5
	m := testModule(t, prof)
	b := bank0()
	vulnerable := 0
	const n = 2000
	for row := 0; row < n; row++ {
		if m.WeakCellCount(b, addr.SideA, row%tinyGeometry().RowsPerBank) > 0 {
			vulnerable++
		}
	}
	frac := float64(vulnerable) / n
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("vulnerable fraction %.2f, want ~0.5", frac)
	}
}

func TestRepeatedHammeringFlipsSameCells(t *testing.T) {
	// Rowhammer errors are repeatable: the same weak cells fail.
	m := testModule(t, testProfile())
	b := bank0()
	fillRows(t, m, b, []int{700, 702}, 0xFF)
	if err := m.ActivateRow(b, 701, 2000, 0); err != nil {
		t.Fatal(err)
	}
	first := m.Flips()
	m.Refresh()
	m.ResetFlips()
	fillRows(t, m, b, []int{700, 702}, 0xFF) // restore data
	if err := m.ActivateRow(b, 701, 2000, 0); err != nil {
		t.Fatal(err)
	}
	second := m.Flips()
	if len(first) != len(second) {
		t.Fatalf("flip count changed between runs: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].MediaRow != second[i].MediaRow || first[i].Bit != second[i].Bit || first[i].Side != second[i].Side {
			t.Errorf("flip %d differs: %v vs %v", i, first[i], second[i])
		}
	}
}

func TestProfilesValidate(t *testing.T) {
	for _, p := range EvaluationProfiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
	if got := len(EvaluationProfiles()); got != 6 {
		t.Errorf("EvaluationProfiles returned %d profiles, want 6 (Table 3 DIMMs A-F)", got)
	}
}

func TestProfileValidateRejectsBad(t *testing.T) {
	cases := []func(*Profile){
		func(p *Profile) { p.HammerThreshold = 0 },
		func(p *Profile) { p.BlastRadius = 0 },
		func(p *Profile) { p.DistanceWeights = nil },
		func(p *Profile) { p.VulnerableRowFraction = 1.5 },
		func(p *Profile) { p.WeakCellsPerRow = -1 },
		func(p *Profile) { p.TRRTableSize = -1 },
		func(p *Profile) { p.TRRTableSize = 4; p.TRRInterval = 0 },
		func(p *Profile) { p.MaxActsPerWindow = 0 },
	}
	for i, mutate := range cases {
		p := ProfileA()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

func TestSideBFlipsLandInSecondHalfOfRow(t *testing.T) {
	// Internal half-rows map to the external row's halves: A-side cells
	// occupy bytes [0, RowBytes/2), B-side the rest (§2.3).
	m := testModule(t, testProfile())
	b := bank0()
	if err := m.ActivateRow(b, 400, 5000, 0); err != nil {
		t.Fatal(err)
	}
	sawA, sawB := false, false
	g := tinyGeometry()
	for _, f := range m.Flips() {
		off := f.ByteOffset(g)
		if f.Side == addr.SideA {
			sawA = true
			if off >= g.RowBytes/2 {
				t.Errorf("A-side flip at byte %d (second half)", off)
			}
		} else {
			sawB = true
			if off < g.RowBytes/2 {
				t.Errorf("B-side flip at byte %d (first half)", off)
			}
		}
	}
	if !sawA || !sawB {
		t.Errorf("expected flips on both sides (A=%v B=%v)", sawA, sawB)
	}
}

func TestActivationCountsAreWindowScoped(t *testing.T) {
	// Disturbance from different refresh windows never accumulates: 999
	// activations per window for many windows cause no flips at a 1000
	// threshold.
	m := testModule(t, testProfile())
	b := bank0()
	for w := 0; w < 20; w++ {
		if err := m.ActivateRow(b, 50, 999, 0); err != nil {
			t.Fatal(err)
		}
		m.Refresh()
	}
	if flips := m.Flips(); len(flips) != 0 {
		t.Fatalf("sub-threshold windows accumulated into flips: %v", flips)
	}
}

func TestNoTRRStillFeedsAttachedDefense(t *testing.T) {
	// Regression: observe() used to early-return when the profile had
	// TRRTableSize == 0, so on TRR-less DIMMs an attached defense never
	// saw a single activation and the module's activation ledger stayed
	// frozen at zero. The observation path must run regardless of whether
	// the profile ships a built-in sampler.
	prof := testProfile() // TRRTableSize == 0
	m := testModule(t, prof)
	b := bank0()
	m.AttachDefense(mitigation.NewTRR(tinyGeometry().BanksPerDIMM(), 4, 600))

	agg := 1000
	fillRows(t, m, b, []int{agg - 1, agg + 1}, 0xAA)
	// 600 activations: below the 1000 threshold, but enough to fire the
	// attached sampler, which refreshes the aggressor's neighbourhood and
	// decays the accumulated disturbance.
	if err := m.ActivateRow(b, agg, 600, 0); err != nil {
		t.Fatal(err)
	}
	// Another 599: only above threshold if the earlier decay was skipped.
	if err := m.ActivateRow(b, agg, 599, 0); err != nil {
		t.Fatal(err)
	}
	if flips := m.Flips(); len(flips) != 0 {
		t.Fatalf("attached defense on TRR-less profile did not observe activations: %v", flips)
	}
	if got := m.TotalActivations(); got != 1199 {
		t.Fatalf("TotalActivations = %d, want 1199", got)
	}
	if n := m.DefenseOverhead().NeighborRefreshes; n == 0 {
		t.Fatal("attached defense recorded no refreshes")
	}

	// Control: the same traffic with no defense attached must flip — the
	// regression fix must not have weakened the undefended baseline.
	ctl := testModule(t, prof)
	fillRows(t, ctl, b, []int{agg - 1, agg + 1}, 0xAA)
	if err := ctl.ActivateRow(b, agg, 600, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctl.ActivateRow(b, agg, 599, 0); err != nil {
		t.Fatal(err)
	}
	if flips := ctl.Flips(); len(flips) == 0 {
		t.Fatal("undefended control did not flip at 1199 activations")
	}
	if got := ctl.TotalActivations(); got != 1199 {
		t.Fatalf("undefended TotalActivations = %d, want 1199", got)
	}
}

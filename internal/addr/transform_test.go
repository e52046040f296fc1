package addr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geometry"
)

func TestBitTransformsAreInvolutions(t *testing.T) {
	f := func(row uint16) bool {
		r := int(row) &^ (1 << 15) // keep non-negative
		return MirrorRow(MirrorRow(r)) == r &&
			InvertRow(InvertRow(r)) == r &&
			ScrambleRow(ScrambleRow(r)) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMirrorRowSwapsPairs(t *testing.T) {
	// 0b10000 (b4=1, b3=0) becomes 0b01000 per §6.
	if got := MirrorRow(0b10000); got != 0b01000 {
		t.Errorf("MirrorRow(0b10000) = %#b, want 0b01000", got)
	}
	if got := MirrorRow(0b01000); got != 0b10000 {
		t.Errorf("MirrorRow(0b01000) = %#b, want 0b10000", got)
	}
	// b5<->b6 and b7<->b8.
	if got := MirrorRow(1 << 5); got != 1<<6 {
		t.Errorf("MirrorRow(b5) = %#b, want b6", got)
	}
	if got := MirrorRow(1 << 7); got != 1<<8 {
		t.Errorf("MirrorRow(b7) = %#b, want b8", got)
	}
	// Bits outside [b3,b8] are untouched.
	if got := MirrorRow(1<<0 | 1<<9 | 1<<12); got != 1<<0|1<<9|1<<12 {
		t.Errorf("MirrorRow moved bits outside [b3,b8]: %#b", got)
	}
}

func TestInvertRowRange(t *testing.T) {
	if got := InvertRow(0); got != 0b111111000 {
		t.Errorf("InvertRow(0) = %#b, want bits 3..8 set", got)
	}
	if got := InvertRow(1<<9 | 1<<2); got != 1<<9|1<<2|0b111111000 {
		t.Errorf("InvertRow touched bits outside [b3,b8]: %#b", got)
	}
}

func TestScrambleRowOnlyWithinEightRowBlocks(t *testing.T) {
	// §6: scrambling affects ordering within 8-row blocks but not their
	// contiguity — higher-order bits never change.
	f := func(row uint16) bool {
		r := int(row)
		return ScrambleRow(r)>>3 == r>>3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// b3=1 flips b1 and b2.
	if got := ScrambleRow(0b1000); got != 0b1110 {
		t.Errorf("ScrambleRow(0b1000) = %#b, want 0b1110", got)
	}
	if got := ScrambleRow(0b0110); got != 0b0110 {
		t.Errorf("ScrambleRow(0b0110) = %#b, want unchanged", got)
	}
}

func TestInternalRowMediaRowRoundTrip(t *testing.T) {
	g := geometry.Default()
	im := NewInternalMapper(g, AllTransforms())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bank := geometry.BankID{
			Socket: r.Intn(g.Sockets),
			DIMM:   r.Intn(g.DIMMsPerSocket),
			Rank:   r.Intn(g.RanksPerDIMM),
			Bank:   r.Intn(g.BanksPerRank),
		}
		row := r.Intn(g.RowsPerBank)
		side := Side(r.Intn(2))
		internal := im.InternalRow(bank, row, side)
		return im.MediaRow(bank, internal, side) == row
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTransformsPreserveSubarrayForPowerOfTwoSizes(t *testing.T) {
	// §6: for power-of-2 subarray sizes in [512, 2048], mirroring,
	// inversion and scrambling only move rows within their subarray.
	for _, rows := range []int{512, 1024, 2048} {
		g := geometry.Default().WithSubarraySize(rows)
		im := NewInternalMapper(g, AllTransforms())
		rng := rand.New(rand.NewSource(int64(rows)))
		for trial := 0; trial < 2000; trial++ {
			bank := geometry.BankFromFlat(g, rng.Intn(g.TotalBanks()))
			row := rng.Intn(g.RowsPerBank)
			for _, side := range []Side{SideA, SideB} {
				internal := im.InternalRow(bank, row, side)
				if internal/rows != row/rows {
					t.Fatalf("rows=%d: media row %d (subarray %d) mapped to internal %d (subarray %d) on %v side %v",
						rows, row, row/rows, internal, internal/rows, bank, side)
				}
			}
		}
	}
}

func TestTransformsViolateNonPowerOfTwoSubarrays(t *testing.T) {
	// §6: sizes that are not powers of two can have rows transformed
	// across subarray boundaries — the case requiring artificial groups.
	g := geometry.Geometry{
		Sockets: 1, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 16, RowsPerBank: 640 * 8, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 640, // not a power of two
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	im := NewInternalMapper(g, AllTransforms())
	bank := geometry.BankID{Socket: 0, DIMM: 0, Rank: 1, Bank: 0}
	violated := false
	for row := 0; row < 4*g.RowsPerSubarray; row++ {
		for _, side := range []Side{SideA, SideB} {
			if im.InternalRow(bank, row, side)/g.RowsPerSubarray != row/g.RowsPerSubarray {
				violated = true
			}
		}
	}
	if !violated {
		t.Error("expected at least one cross-subarray transform for a 640-row subarray size")
	}
}

func TestMirroringOnlyOnOddRanks(t *testing.T) {
	g := geometry.Default()
	im := NewInternalMapper(g, TransformConfig{Mirroring: true})
	even := geometry.BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 3}
	odd := geometry.BankID{Socket: 0, DIMM: 0, Rank: 1, Bank: 3}
	row := 0b10000
	if got := im.InternalRow(even, row, SideA); got != row {
		t.Errorf("even rank transformed row %#b -> %#b", row, got)
	}
	if got := im.InternalRow(odd, row, SideA); got != MirrorRow(row) {
		t.Errorf("odd rank: got %#b, want %#b", got, MirrorRow(row))
	}
}

func TestInversionOnlyOnBSide(t *testing.T) {
	g := geometry.Default()
	im := NewInternalMapper(g, TransformConfig{Inversion: true})
	bank := geometry.BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 0}
	row := 42
	if got := im.InternalRow(bank, row, SideA); got != row {
		t.Errorf("A side transformed row %d -> %d", row, got)
	}
	if got := im.InternalRow(bank, row, SideB); got != InvertRow(row) {
		t.Errorf("B side: got %d, want %d", got, InvertRow(row))
	}
}

func TestNoTransformsIsIdentity(t *testing.T) {
	g := geometry.Default()
	im := NewInternalMapper(g, TransformConfig{})
	bank := geometry.BankID{Socket: 1, DIMM: 2, Rank: 1, Bank: 7}
	for _, row := range []int{0, 1, 511, 512, 99999} {
		for _, side := range []Side{SideA, SideB} {
			if got := im.InternalRow(bank, row, side); got != row {
				t.Errorf("identity mapper moved row %d -> %d", row, got)
			}
		}
	}
}

func TestGenerateRepairsIntra(t *testing.T) {
	g := tinyGeometry()
	rt, err := GenerateRepairs(g, RepairIntraSubarray, 0.01, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	reps := rt.Repairs()
	if len(reps) == 0 {
		t.Fatal("no repairs generated")
	}
	for _, r := range reps {
		if r.InterSubarray(g) {
			t.Errorf("intra mode produced inter-subarray repair %+v", r)
		}
	}
	if got := rt.InterSubarrayRepairs(); len(got) != 0 {
		t.Errorf("InterSubarrayRepairs = %d, want 0", len(got))
	}
}

func TestGenerateRepairsInter(t *testing.T) {
	g := tinyGeometry()
	rt, err := GenerateRepairs(g, RepairInterSubarray, 0.01, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	reps := rt.Repairs()
	if len(reps) == 0 {
		t.Fatal("no repairs generated")
	}
	for _, r := range reps {
		if !r.InterSubarray(g) {
			t.Errorf("inter mode produced intra-subarray repair %+v", r)
		}
	}
	if got := rt.InterSubarrayRepairs(); len(got) != len(reps) {
		t.Errorf("InterSubarrayRepairs = %d, want %d", len(got), len(reps))
	}
}

func TestRepairTableLookup(t *testing.T) {
	g := tinyGeometry()
	rt := NewRepairTable(g)
	bank := geometry.BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 0}
	rep := Repair{Bank: bank, From: 100, Spare: SpareRow{Anchor: 700}}
	if err := rt.Add(rep); err != nil {
		t.Fatal(err)
	}
	if err := rt.Add(rep); err == nil {
		t.Error("duplicate repair accepted")
	}
	if s, ok := rt.Lookup(bank, 100); !ok || s.Anchor != 700 {
		t.Errorf("Lookup = %+v, %v", s, ok)
	}
	if _, ok := rt.Lookup(bank, 101); ok {
		t.Error("Lookup found repair for unrepaired row")
	}
	if err := rt.Add(Repair{Bank: bank, From: -1, Spare: SpareRow{Anchor: 0}}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if err := rt.Add(Repair{Bank: bank, From: 5, Spare: SpareRow{Anchor: g.RowsPerBank}}); err == nil {
		t.Error("out-of-range anchor accepted")
	}
}

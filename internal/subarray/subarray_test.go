package subarray

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
)

func tinyGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets:         2,
		CoresPerSocket:  4,
		DIMMsPerSocket:  1,
		RanksPerDIMM:    2,
		BanksPerRank:    2,
		RowsPerBank:     2048,
		RowBytes:        8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

func tinyLayout(t *testing.T) *Layout {
	t.Helper()
	g := tinyGeometry()
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout(g, m, addr.AllTransforms())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestDefaultLayoutMatchesPaper(t *testing.T) {
	g := geometry.Default()
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout(g, m, addr.AllTransforms())
	if err != nil {
		t.Fatal(err)
	}
	if l.Artificial() {
		t.Error("1024-row subarrays should not need artificial groups")
	}
	if got := l.GroupsPerSocket(); got != 128 {
		t.Errorf("GroupsPerSocket = %d, want 128", got)
	}
	if got := l.GroupBytes(); got != uint64(3*geometry.GiB/2) {
		t.Errorf("GroupBytes = %d, want 1.5 GiB", got)
	}
	for s := 0; s < g.Sockets; s++ {
		for i := 0; i < l.GroupsPerSocket(); i++ {
			grp := l.Group(s, i)
			if grp.Bytes() != l.GroupBytes() {
				t.Fatalf("group (%d,%d) has %d bytes, want %d", s, i, grp.Bytes(), l.GroupBytes())
			}
		}
	}
}

func TestGroupsPartitionTheAddressSpace(t *testing.T) {
	l := tinyLayout(t)
	g := l.Geometry()
	// Every 2 MiB page belongs to exactly one group.
	counts := make(map[[2]int]uint64)
	for pa := uint64(0); pa < uint64(g.TotalBytes()); pa += geometry.PageSize2M {
		owners := 0
		for s := 0; s < g.Sockets; s++ {
			for i := 0; i < l.GroupsPerSocket(); i++ {
				if l.Group(s, i).Contains(pa) {
					owners++
					counts[[2]int{s, i}] += geometry.PageSize2M
				}
			}
		}
		if owners != 1 {
			t.Fatalf("pa %#x in %d groups, want 1", pa, owners)
		}
	}
	for key, n := range counts {
		if n != l.GroupBytes() {
			t.Errorf("group %v accumulated %d bytes of pages, want %d", key, n, l.GroupBytes())
		}
	}
}

func TestEvery2MiBPageInOneGroup(t *testing.T) {
	// The isolation prerequisite of §4.2: all bytes of a 2 MiB page are
	// in the page's group.
	l := tinyLayout(t)
	g := l.Geometry()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 64; trial++ {
		page := uint64(rng.Int63n(g.TotalBytes()/geometry.PageSize2M)) * geometry.PageSize2M
		ma, err := l.mapper.Decode(page)
		if err != nil {
			t.Fatal(err)
		}
		grp := l.Group(ma.Bank.Socket, ma.Row/l.RowsPerGroup())
		for off := uint64(0); off < geometry.PageSize2M; off += 32 * geometry.KiB {
			if !grp.Contains(page + off) {
				t.Fatalf("page %#x offset %#x left its group", page, off)
			}
		}
	}
}

func TestGroupRangesAre2MiBAligned(t *testing.T) {
	// Groups must be carveable into huge pages.
	l := tinyLayout(t)
	for s := 0; s < l.Geometry().Sockets; s++ {
		for i := 0; i < l.GroupsPerSocket(); i++ {
			for _, r := range l.Group(s, i).Ranges {
				if r.Start%geometry.PageSize2M != 0 || r.End%geometry.PageSize2M != 0 {
					t.Fatalf("group (%d,%d) range %v not 2 MiB aligned", s, i, r)
				}
			}
		}
	}
}

func TestGroupRowBounds(t *testing.T) {
	l := tinyLayout(t)
	grp := l.Group(0, 1)
	if grp.FirstRow != 512 || grp.LastRow != 1023 {
		t.Errorf("group 1 rows [%d,%d], want [512,1023]", grp.FirstRow, grp.LastRow)
	}
}

func TestArtificialLayoutRoundsUp(t *testing.T) {
	g := geometry.Geometry{
		Sockets: 1, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 2, RowsPerBank: 5120, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 640, // not a power of two
	}
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout(g, m, addr.AllTransforms())
	if err != nil {
		t.Fatal(err)
	}
	if !l.Artificial() {
		t.Fatal("640-row subarrays must form artificial groups")
	}
	if l.RowsPerGroup() != 1024 {
		t.Fatalf("RowsPerGroup = %d, want 1024", l.RowsPerGroup())
	}
	if l.GroupsPerSocket() != 5 {
		t.Errorf("GroupsPerSocket = %d, want 5", l.GroupsPerSocket())
	}

	guards := l.BoundaryGuardRows()
	if len(guards) == 0 {
		t.Fatal("artificial layout needs boundary guard rows")
	}
	perBoundary := float64(len(guards)) / float64(l.GroupsPerSocket())
	if perBoundary < 2*GuardRowsPerBoundary || perBoundary > 4*GuardRowsPerBoundary {
		t.Errorf("%.1f guard rows per boundary, want within [8,16] (§6: ~2x4 accounting for sides)", perBoundary)
	}
	// Guard rows must include the first GuardRowsPerBoundary rows of each
	// artificial group.
	guardSet := make(map[int]bool)
	for _, r := range guards {
		guardSet[r] = true
	}
	for start := 0; start < g.RowsPerBank; start += l.RowsPerGroup() {
		for k := 0; k < GuardRowsPerBoundary; k++ {
			if !guardSet[start+k] {
				t.Errorf("guard row %d missing", start+k)
			}
		}
	}
	// Reserved fraction in the paper's reported band (≈0.39%-1.56%,
	// modulo the safe over-approximation of preimages).
	frac := float64(len(guards)) / float64(g.RowsPerBank)
	if frac < 0.003 || frac > 0.02 {
		t.Errorf("guard fraction %.4f outside expected band", frac)
	}
}

func TestPowerOfTwoLayoutNeedsNoGuards(t *testing.T) {
	l := tinyLayout(t)
	if rows := l.BoundaryGuardRows(); len(rows) != 0 {
		t.Errorf("power-of-two layout returned %d guard rows, want 0", len(rows))
	}
}

// transformSubsets returns all eight combinations of the three transforms.
func transformSubsets() []addr.TransformConfig {
	var out []addr.TransformConfig
	for m := 0; m < 8; m++ {
		out = append(out, addr.TransformConfig{Mirroring: m&1 != 0, Inversion: m&2 != 0, Scrambling: m&4 != 0})
	}
	return out
}

// hazardBox is a one-socket geometry whose 10 240-row banks hold every
// managed size the hazard rule produces for the subarray sizes below.
func hazardBox(t *testing.T, rows int) (geometry.Geometry, addr.Mapper) {
	t.Helper()
	g := geometry.Geometry{
		Sockets: 1, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 2, RowsPerBank: 10240, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: rows,
	}
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

// TestHazardRule pins the one size rule: a size is artificial exactly when
// an enabled transform reorders rows across its boundary (mirroring and
// inversion within 512-row blocks, scrambling within 8), and then rounds up
// to the next power of two that is at least the block.
func TestHazardRule(t *testing.T) {
	for _, tc := range []struct {
		rows          int
		block         int // the reordering block under mirroring or inversion
		scrambleBlock int // under scrambling alone
	}{
		{4, 512, 8}, {20, 512, 32}, {256, 512, 256}, {512, 512, 512}, {640, 1024, 640},
		{1024, 1024, 1024}, {1280, 2048, 1280}, {2560, 2560, 2560},
	} {
		g, m := hazardBox(t, tc.rows)
		for _, tr := range transformSubsets() {
			want := tc.rows
			switch {
			case tr.Mirroring || tr.Inversion:
				want = tc.block
			case tr.Scrambling:
				want = tc.scrambleBlock
			}
			l, err := NewLayout(g, m, tr)
			if err != nil {
				t.Fatalf("%d rows under %+v: %v", tc.rows, tr, err)
			}
			if l.RowsPerGroup() != want || l.Artificial() != (want != tc.rows) || l.Transforms() != tr {
				t.Errorf("%d rows under %+v: managed %d, artificial %v, transforms %+v; want managed %d",
					tc.rows, tr, l.RowsPerGroup(), l.Artificial(), l.Transforms(), want)
			}
			// Guards only where a group edge is not a real subarray edge.
			if guarded := len(l.BoundaryGuardRows()) != 0; guarded != (want%tc.rows != 0) {
				t.Errorf("%d rows under %+v in %d-row groups: guard rows %v", tc.rows, tr, want, guarded)
			}
		}
	}
}

// TestGuardRowsCoverEveryTransformSubset checks the guard rule against the
// modules it protects: for a layout built for a union of transforms, every
// module applying any subset of that union resolves each internal guard
// position, on either rank parity and half-row side, to a media row in
// BoundaryGuardRows.
func TestGuardRowsCoverEveryTransformSubset(t *testing.T) {
	for _, rows := range []int{20, 640, 1280} {
		g, m := hazardBox(t, rows)
		for _, union := range transformSubsets() {
			l, err := NewLayout(g, m, union)
			if err != nil {
				t.Fatal(err)
			}
			if l.RowsPerGroup()%rows == 0 {
				continue // every group edge is a real subarray edge
			}
			guards := make(map[int]bool)
			for _, r := range l.BoundaryGuardRows() {
				guards[r] = true
			}
			for _, sub := range transformSubsets() {
				if (sub.Mirroring && !union.Mirroring) || (sub.Inversion && !union.Inversion) || (sub.Scrambling && !union.Scrambling) {
					continue
				}
				im := addr.NewInternalMapper(g, sub)
				for start := 0; start < g.RowsPerBank; start += l.RowsPerGroup() {
					for k := 0; k < GuardRowsPerBoundary; k++ {
						for rank := 0; rank < g.RanksPerDIMM; rank++ {
							for _, side := range []addr.Side{addr.SideA, addr.SideB} {
								bank := geometry.BankID{Rank: rank}
								if media := im.MediaRow(bank, start+k, side); !guards[media] {
									t.Fatalf("%d rows, layout for %+v, module with %+v: guard position %d (rank %d side %v) is media row %d, not guarded",
										rows, union, sub, start+k, rank, side, media)
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestOfflineRangesForRows(t *testing.T) {
	l := tinyLayout(t)
	g := l.Geometry()
	ranges, err := l.OfflineRangesForRows([]int{0, 1, 700})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, r := range ranges {
		total += r.Bytes()
	}
	want := uint64(3) * uint64(g.RowGroupBytes()) * uint64(g.Sockets)
	if total != want {
		t.Errorf("offline ranges cover %d bytes, want %d", total, want)
	}
	// Rows 0 and 1 are adjacent row groups within one chunk: their
	// physical images coalesce.
	if len(ranges) >= 2 && ranges[0].Bytes() < 2*uint64(g.RowGroupBytes()) {
		t.Errorf("adjacent row groups did not coalesce: %v", ranges)
	}
}

func TestLayoutRejectsIndivisibleGeometry(t *testing.T) {
	g := tinyGeometry()
	g.RowsPerBank = 2048 + 512 // 2560: divisible by 512 but not by itself after round-up? (2560/512=5, power-of-two size ok)
	g.RowsPerSubarray = 512
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		// Geometry may be rejected by the mapper instead; both are fine.
		return
	}
	if _, err := NewLayout(g, m, addr.AllTransforms()); err != nil {
		t.Logf("NewLayout rejected: %v", err)
	}
}

func TestRangeSetOperations(t *testing.T) {
	a := []Range{{0, 100}, {200, 300}}
	b := []Range{{50, 250}}
	sub := Subtract(a, b)
	wantSub := []Range{{0, 50}, {250, 300}}
	for i := range wantSub {
		if sub[i] != wantSub[i] {
			t.Fatalf("Subtract[%d] = %v, want %v", i, sub[i], wantSub[i])
		}
	}
	if co := Coalesce([]Range{{10, 20}, {20, 30}, {40, 50}}); len(co) != 2 || co[0] != (Range{10, 30}) {
		t.Fatalf("Coalesce = %v", co)
	}
	if s := (Range{1, 2}).String(); s == "" {
		t.Error("empty Range string")
	}
}

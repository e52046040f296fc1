package subarray

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
)

// The retired boot arithmetic, kept verbatim as the oracle for the one-pass
// layout build and the linear range algebra: a build that appends one range
// per row and coalesces them with a comparator sort, and a Subtract that
// compares every pair of ranges. The retired Intersect, whose one caller was
// the EPT-block loop, lives in core's boot oracle.

// retiredBuild is the retired Layout.build, returning the groups it computed.
func retiredBuild(l *Layout) ([][]*Group, error) {
	g := l.g
	rowGroupBytes := uint64(g.RowGroupBytes())
	perSocket := g.RowsPerBank / l.rowsPerGroup
	groups := make([][]*Group, g.Sockets)
	for s := 0; s < g.Sockets; s++ {
		groups[s] = make([]*Group, perSocket)
		bank0 := firstBank(g, s)
		for idx := 0; idx < perSocket; idx++ {
			grp := &Group{
				Socket:   s,
				Index:    idx,
				FirstRow: idx * l.rowsPerGroup,
				LastRow:  (idx+1)*l.rowsPerGroup - 1,
			}
			var ranges []Range
			for row := grp.FirstRow; row <= grp.LastRow; row++ {
				pa, err := l.mapper.Encode(geometry.MediaAddr{Bank: bank0, Row: row, Col: 0})
				if err != nil {
					return nil, fmt.Errorf("subarray: encoding row %d of socket %d: %w", row, s, err)
				}
				ranges = append(ranges, Range{Start: pa, End: pa + rowGroupBytes})
			}
			grp.Ranges = retiredCoalesceInPlace(ranges)
			groups[s][idx] = grp
		}
	}
	return groups, nil
}

// retiredOfflineRangesForRows is the retired OfflineRangesForRows.
func retiredOfflineRangesForRows(l *Layout, rows []int) ([]Range, error) {
	var out []Range
	for s := 0; s < l.g.Sockets; s++ {
		for _, row := range rows {
			pa, err := l.mapper.Encode(geometry.MediaAddr{Bank: firstBank(l.g, s), Row: row, Col: 0})
			if err != nil {
				return nil, err
			}
			out = append(out, Range{Start: pa, End: pa + uint64(l.g.RowGroupBytes())})
		}
	}
	return retiredCoalesceInPlace(out), nil
}

// retiredCoalesceInPlace is the retired coalesce.
func retiredCoalesceInPlace(rs []Range) []Range {
	if len(rs) == 0 {
		return nil
	}
	slices.SortFunc(rs, func(a, b Range) int { return cmp.Compare(a.Start, b.Start) })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Start <= last.End {
			if r.End > last.End {
				last.End = r.End
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// retiredCoalesce is the retired Coalesce.
func retiredCoalesce(rs []Range) []Range {
	cp := make([]Range, len(rs))
	copy(cp, rs)
	return retiredCoalesceInPlace(cp)
}

// retiredSubtract is the retired Subtract.
func retiredSubtract(usable, remove []Range) []Range {
	u := retiredCoalesce(usable)
	rm := retiredCoalesce(remove)
	var out []Range
	for _, cur := range u {
		for _, off := range rm {
			if off.End <= cur.Start || off.Start >= cur.End {
				continue
			}
			if off.Start > cur.Start {
				out = append(out, Range{Start: cur.Start, End: off.Start})
			}
			if off.End >= cur.End {
				cur.Start = cur.End
				break
			}
			cur.Start = off.End
		}
		if cur.Start < cur.End {
			out = append(out, cur)
		}
	}
	return out
}

// layoutCase is one geometry, mapper and module the layout oracle builds.
type layoutCase struct {
	name       string
	g          geometry.Geometry
	linear     bool
	transforms addr.TransformConfig
}

func layoutCases() []layoutCase {
	serve := geometry.Geometry{
		Sockets: 2, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 8, RowsPerBank: 2048, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
	fleet := serve
	fleet.RowsPerBank = 4096
	hammer := geometry.Geometry{
		Sockets: 2, CoresPerSocket: 8, DIMMsPerSocket: 2, RanksPerDIMM: 2,
		BanksPerRank: 4, RowsPerBank: 4096, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
	art640 := geometry.Geometry{
		Sockets: 1, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 2, RowsPerBank: 5120, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 640,
	}
	// 1000-row banks of 500-row subarrays, whose capacity no Skylake
	// mapping region divides: laid out linearly, and only without
	// transforms (512-row artificial groups do not divide the bank).
	ragged500 := geometry.Geometry{
		Sockets: 2, CoresPerSocket: 4, DIMMsPerSocket: 2, RanksPerDIMM: 1,
		BanksPerRank: 3, RowsPerBank: 1000, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 500,
	}
	var cases []layoutCase
	for _, c := range []struct {
		name string
		g    geometry.Geometry
	}{
		{"default", geometry.Default()}, {"serve", serve}, {"fleet", fleet},
		{"hammer", hammer}, {"artificial-640", art640},
	} {
		cases = append(cases,
			layoutCase{name: c.name + "/plain", g: c.g},
			layoutCase{name: c.name + "/all-transforms", g: c.g, transforms: addr.AllTransforms()})
	}
	return append(cases, layoutCase{name: "ragged-500/linear", g: ragged500, linear: true})
}

// TestLayoutMatchesRetiredBuild compares every group of the one-pass build
// with the retired build's, and requires each range set to be sized exactly.
// The layout's offline ranges for its guard rows plus a spread of other rows
// must match the retired per-row arithmetic too.
func TestLayoutMatchesRetiredBuild(t *testing.T) {
	for _, c := range layoutCases() {
		t.Run(c.name, func(t *testing.T) {
			var m addr.Mapper
			var err error
			if c.linear {
				m, err = addr.NewLinearMapper(c.g)
			} else {
				m, err = addr.NewSkylakeMapper(c.g)
			}
			if err != nil {
				t.Fatal(err)
			}
			l, err := NewLayout(c.g, m, c.transforms)
			if err != nil {
				t.Fatal(err)
			}
			want, err := retiredBuild(l)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(l.groups, want) {
				t.Fatal("groups differ from the retired build")
			}
			for s := range l.groups {
				for _, grp := range l.groups[s] {
					if len(grp.Ranges) != cap(grp.Ranges) {
						t.Fatalf("group (%d,%d): %d ranges in capacity %d", s, grp.Index, len(grp.Ranges), cap(grp.Ranges))
					}
				}
			}
			rows := l.BoundaryGuardRows()
			for r := 0; r+1 < c.g.RowsPerBank; r += 37 {
				rows = append(rows, r, r+1)
			}
			rows = append(rows, c.g.RowsPerBank-1)
			got, err := l.OfflineRangesForRows(rows)
			if err != nil {
				t.Fatal(err)
			}
			wantOff, err := retiredOfflineRangesForRows(l, rows)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantOff) || len(got) != cap(got) {
				t.Fatalf("OfflineRangesForRows: %d ranges in capacity %d, retired %d; equal %v",
					len(got), cap(got), len(wantOff), reflect.DeepEqual(got, wantOff))
			}
		})
	}
}

// rangeSet decodes up to n ranges from data, two bytes each: a start in
// [0, 64) and a length in [0, 12). Small values make overlapping, adjacent,
// nested, repeated and empty ranges common, and the order is whatever the
// bytes give.
func rangeSet(data []byte, n int) ([]Range, []byte) {
	var rs []Range
	for ; n > 0 && len(data) >= 2; n-- {
		start := uint64(data[0] % 64)
		rs = append(rs, Range{Start: start, End: start + uint64(data[1]%12)})
		data = data[2:]
	}
	return rs, data
}

// FuzzRangeAlgebraMatchesRetired drives Coalesce and Subtract on
// random range sets against the retired implementations: the same ranges,
// nil for the same empty results, outputs sized exactly, inputs untouched,
// and outputs that share no memory with the inputs.
func FuzzRangeAlgebraMatchesRetired(f *testing.F) {
	for _, seed := range [][]byte{
		// Adjacent ranges must merge: [0,4) [4,8) [8,9) out of order.
		{3, 2, 4, 4, 0, 4, 8, 1, 1, 2, 6},
		// Adjacent ranges already in order must merge too: [0,4) [4,8)
		// and [4,6).
		{2, 1, 0, 4, 4, 4, 4, 2},
		// Overlapping and nested ranges, and a removal ending exactly where
		// a usable range ends: [10,21) [12,15) [18,25) minus [20,25) [0,11).
		{3, 2, 10, 11, 12, 3, 18, 7, 20, 5, 0, 11},
		// Empty ranges on both sides and one range repeated.
		{4, 3, 5, 0, 5, 6, 5, 6, 30, 0, 5, 0, 7, 2, 40, 0},
		// One side empty.
		{0, 2, 1, 5, 9, 3},
		// A removal spanning several usable ranges: [0,3) [5,8) [10,13)
		// minus [2,11).
		{3, 1, 0, 3, 5, 3, 10, 3, 2, 9},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		na, nb := int(data[0]%8), int(data[1]%8)
		a, rest := rangeSet(data[2:], na)
		b, _ := rangeSet(rest, nb)
		a0, b0 := slices.Clone(a), slices.Clone(b)
		check := func(op string, got, want []Range) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s(a=%v, b=%v) = %v, retired %v", op, a0, b0, got, want)
			}
			if len(got) != cap(got) {
				t.Fatalf("%s(a=%v, b=%v): %d ranges in capacity %d", op, a0, b0, len(got), cap(got))
			}
			if !slices.Equal(a, a0) || !slices.Equal(b, b0) {
				t.Fatalf("%s changed its inputs: a=%v b=%v, were a=%v b=%v", op, a, b, a0, b0)
			}
			for i := range got {
				got[i] = Range{Start: 1 << 40, End: 1 << 41}
			}
			if !slices.Equal(a, a0) || !slices.Equal(b, b0) {
				t.Fatalf("%s returned memory its inputs share", op)
			}
		}
		check("Coalesce", Coalesce(a), retiredCoalesce(a))
		check("Subtract", Subtract(a, b), retiredSubtract(a, b))
		check("Subtract", Subtract(b, a), retiredSubtract(b, a))
	})
}

// Package subarray implements the paper's core primitive (§4): subarray
// groups — collections of at least one subarray from every bank in a
// physical NUMA node — as software-visible DRAM isolation domains.
//
// A Layout computes, from a geometry and the platform's physical-to-media
// address mapping, the physical address ranges composing every subarray
// group, the group that owns any physical address, and the page-offlining
// requirements of §6 (artificial groups with boundary guard rows where the
// row address transforms reorder rows across a subarray boundary).
package subarray

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/addr"
	"repro/internal/geometry"
)

// Range is a half-open physical address range [Start, End).
type Range struct {
	Start, End uint64
}

// Bytes returns the range's length.
func (r Range) Bytes() uint64 { return r.End - r.Start }

// Contains reports whether pa falls in the range.
func (r Range) Contains(pa uint64) bool { return pa >= r.Start && pa < r.End }

func (r Range) String() string { return fmt.Sprintf("[%#x,%#x)", r.Start, r.End) }

// Group is one subarray group: RowsPerSubarray consecutive row groups in a
// physical node, i.e. the same subarray index in every bank of the socket
// (Fig. 2).
type Group struct {
	// Socket is the physical node the group belongs to.
	Socket int
	// Index is the subarray group index within the socket; the group
	// covers media rows [Index*r, (Index+1)*r) of every bank, where r is
	// the (possibly artificial) subarray size in rows.
	Index int
	// FirstRow and LastRow bound the group's media rows [FirstRow,
	// LastRow] in every bank of the socket.
	FirstRow, LastRow int
	// Ranges are the physical address ranges backing the group, sorted
	// and coalesced.
	Ranges []Range
}

// Bytes returns the group's total capacity.
func (g *Group) Bytes() uint64 {
	var n uint64
	for _, r := range g.Ranges {
		n += r.Bytes()
	}
	return n
}

// Contains reports whether a physical address belongs to the group.
func (g *Group) Contains(pa uint64) bool {
	i := sort.Search(len(g.Ranges), func(i int) bool { return g.Ranges[i].End > pa })
	return i < len(g.Ranges) && g.Ranges[i].Contains(pa)
}

// Layout is the boot-time computed map from physical addresses to subarray
// groups (§5.3). RowsPerGroup is the managed subarray size: the true size,
// or, where the row address transforms reorder rows across its boundaries,
// the next power of two that contains their reordering block ("artificial
// groups", §6).
type Layout struct {
	g            geometry.Geometry
	mapper       addr.Mapper
	transforms   addr.TransformConfig
	rowsPerGroup int
	artificial   bool
	groups       [][]*Group // [socket][index]
}

// NewLayout computes subarray groups for g under the platform mapping and
// the row address transforms of the modules it covers: for a box of mixed
// DIMMs, the union of theirs. A size is hazardous when a transform reorders
// rows across its boundaries: mirroring and inversion reorder within
// 512-row blocks, scrambling within 8-row blocks. A hazardous size rounds up
// to the next power of two that is at least the block, forming artificial
// groups whose BoundaryGuardRows callers must offline (§6). DDR5 modules
// undo mirroring and inversion at each device (§8.2), so they get exact
// groups for any multiple of 8 rows.
func NewLayout(g geometry.Geometry, mapper addr.Mapper, transforms addr.TransformConfig) (*Layout, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	block := 1
	if transforms.Mirroring || transforms.Inversion {
		block = 512
	} else if transforms.Scrambling {
		block = 8
	}
	rows := g.RowsPerSubarray
	artificial := rows%block != 0
	if artificial {
		rows = max(1<<bits.Len(uint(rows-1)), block)
	}
	if g.RowsPerBank%rows != 0 {
		return nil, fmt.Errorf("subarray: bank rows %d not divisible by managed group size %d",
			g.RowsPerBank, rows)
	}
	l := &Layout{g: g, mapper: mapper, transforms: transforms, rowsPerGroup: rows, artificial: artificial}
	if err := l.build(); err != nil {
		return nil, err
	}
	return l, nil
}

// build computes every group's physical ranges in one sorted pass per group:
// encode each row group's first cache line into one reused buffer, sort the
// starts, and coalesce them into a range set sized exactly.
func (l *Layout) build() error {
	g := l.g
	perSocket := g.RowsPerBank / l.rowsPerGroup
	starts := make([]uint64, l.rowsPerGroup)
	l.groups = make([][]*Group, g.Sockets)
	for s := 0; s < g.Sockets; s++ {
		l.groups[s] = make([]*Group, perSocket)
		bank0 := firstBank(g, s)
		for idx := 0; idx < perSocket; idx++ {
			grp := &Group{
				Socket:   s,
				Index:    idx,
				FirstRow: idx * l.rowsPerGroup,
				LastRow:  (idx+1)*l.rowsPerGroup - 1,
			}
			for i := range starts {
				pa, err := l.mapper.Encode(geometry.MediaAddr{Bank: bank0, Row: grp.FirstRow + i, Col: 0})
				if err != nil {
					return fmt.Errorf("subarray: encoding row %d of socket %d: %w", grp.FirstRow+i, s, err)
				}
				starts[i] = pa
			}
			grp.Ranges = rowGroupRuns(starts, uint64(g.RowGroupBytes()))
			l.groups[s][idx] = grp
		}
	}
	return nil
}

// firstBank returns the bank with within-socket index 0 on socket s.
func firstBank(g geometry.Geometry, s int) geometry.BankID {
	return geometry.BankID{Socket: s, DIMM: 0, Rank: 0, Bank: 0}
}

// rowGroupRuns sorts starts in place and returns the coalesced ranges of the
// size-byte row groups beginning there, in one exact-size allocation.
func rowGroupRuns(starts []uint64, size uint64) []Range {
	if len(starts) == 0 {
		return nil
	}
	slices.Sort(starts)
	n, end := 1, starts[0]+size
	for _, pa := range starts[1:] {
		if pa > end {
			n++
		}
		end = max(end, pa+size)
	}
	out := make([]Range, 0, n)
	cur := Range{Start: starts[0], End: starts[0] + size}
	for _, pa := range starts[1:] {
		if pa > cur.End {
			out = append(out, cur)
			cur.Start = pa
		}
		cur.End = max(cur.End, pa+size)
	}
	return append(out, cur)
}

// byStart orders ranges by their first address.
func byStart(a, b Range) int { return cmp.Compare(a.Start, b.Start) }

// isCoalesced reports whether rs is sorted and merged: every range starts
// past the end of the one before it.
func isCoalesced(rs []Range) bool {
	for i := 1; i < len(rs); i++ {
		if rs[i].Start <= rs[i-1].End {
			return false
		}
	}
	return true
}

// coalesced returns rs itself when it is already sorted and merged, and
// otherwise a sorted, merged copy; the caller must not write the result.
func coalesced(rs []Range) []Range {
	if isCoalesced(rs) {
		return rs
	}
	cp := slices.Clone(rs)
	slices.SortFunc(cp, byStart)
	out := cp[:1]
	for _, r := range cp[1:] {
		if last := &out[len(out)-1]; r.Start <= last.End {
			last.End = max(last.End, r.End)
			continue
		}
		out = append(out, r)
	}
	return out
}

// Coalesce returns a sorted, merged copy of the given ranges, sized exactly
// (nil when rs is empty).
func Coalesce(rs []Range) []Range {
	c := coalesced(rs)
	if len(c) == 0 {
		return nil
	}
	out := make([]Range, len(c))
	copy(out, c)
	return out
}

// Subtract removes every range in remove from usable, returning the
// coalesced remainder, sized exactly (nil when nothing remains). It is how
// boot-time offlining (guard rows, repaired rows, the EPT block) carves
// holes out of node memory. Both inputs are merged once and walked together.
func Subtract(usable, remove []Range) []Range {
	u, rm := coalesced(usable), coalesced(remove)
	n := subtract(nil, u, rm)
	if n == 0 {
		return nil
	}
	out := make([]Range, n)
	subtract(out, u, rm)
	return out
}

// subtract writes the coalesced difference u - rm into dst and returns its
// length; a nil dst only counts. Both sets are sorted and merged, so their
// ends ascend: the removals ending before a usable range starts are a
// prefix, skipped once for all later usable ranges too.
func subtract(dst, u, rm []Range) int {
	n, j := 0, 0
	emit := func(r Range) {
		if dst != nil {
			dst[n] = r
		}
		n++
	}
	for _, cur := range u {
		for j < len(rm) && rm[j].End <= cur.Start {
			j++
		}
		for _, off := range rm[j:] {
			if off.Start >= cur.End {
				break
			}
			if off.Start > cur.Start {
				emit(Range{Start: cur.Start, End: off.Start})
			}
			if off.End >= cur.End {
				cur.Start = cur.End
				break
			}
			cur.Start = off.End
		}
		if cur.Start < cur.End {
			emit(cur)
		}
	}
	return n
}

// Geometry returns the layout's geometry.
func (l *Layout) Geometry() geometry.Geometry { return l.g }

// RowsPerGroup returns the managed (possibly artificial) group size in rows.
func (l *Layout) RowsPerGroup() int { return l.rowsPerGroup }

// Transforms returns the row address transforms the layout was built for.
func (l *Layout) Transforms() addr.TransformConfig { return l.transforms }

// Artificial reports whether the layout had to round the subarray size up
// to a power of two (§6).
func (l *Layout) Artificial() bool { return l.artificial }

// GroupsPerSocket returns the number of subarray groups per physical node.
func (l *Layout) GroupsPerSocket() int { return len(l.groups[0]) }

// Group returns the group at (socket, index).
func (l *Layout) Group(socket, index int) *Group {
	return l.groups[socket][index]
}

// GroupBytes returns the capacity of each group.
func (l *Layout) GroupBytes() uint64 {
	return uint64(l.g.BanksPerSocket()) * uint64(l.rowsPerGroup) * uint64(l.g.RowBytes)
}

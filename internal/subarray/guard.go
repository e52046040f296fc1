package subarray

import (
	"sort"

	"repro/internal/addr"
	"repro/internal/geometry"
)

// GuardRowsPerBoundary is the number of guard rows needed on each side of
// an isolation boundary on modern server DIMMs (blast radius 2, §6).
const GuardRowsPerBoundary = 4

// BoundaryGuardRows returns, for an artificial layout, the media rows at
// the start of each artificial subarray that must be offlined to enforce
// isolation across artificial boundaries (§6). The returned set is the
// union of the guard positions' preimages under every transformation the
// layout was built for, alone or combined (rank mirroring fixes rows 0-3;
// B-side inversion maps them to rows 504-507 of their 512-row block), so
// offlining these media rows guarantees that, on every module applying any
// subset of those transforms, no allocatable row is internally adjacent to a
// boundary.
//
// For an exact layout the result is empty: real subarray boundaries provide
// natural isolation. So it is when the managed size is a multiple of the
// true one (256-row subarrays in 512-row groups): every group edge is then a
// real boundary too.
func (l *Layout) BoundaryGuardRows() []int {
	if !l.artificial || l.rowsPerGroup%l.g.RowsPerSubarray == 0 {
		return nil
	}
	set := make(map[int]bool)
	for start := 0; start < l.g.RowsPerBank; start += l.rowsPerGroup {
		for k := 0; k < GuardRowsPerBoundary; k++ {
			p := start + k
			// Preimages of internal guard position p under each
			// rank/side transform combination.
			candidates := []int{p}
			if l.transforms.Inversion {
				candidates = append(candidates, addr.InvertRow(p))
			}
			if l.transforms.Mirroring {
				candidates = append(candidates, addr.MirrorRow(p))
				if l.transforms.Inversion {
					candidates = append(candidates, addr.MirrorRow(addr.InvertRow(p)))
				}
			}
			if l.transforms.Scrambling {
				for _, c := range append([]int(nil), candidates...) {
					candidates = append(candidates, addr.ScrambleRow(c))
				}
			}
			for _, c := range candidates {
				if c >= 0 && c < l.g.RowsPerBank {
					set[c] = true
				}
			}
		}
	}
	rows := make([]int, 0, len(set))
	for r := range set {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	return rows
}

// RowGroupRange returns the physical range of one media row's row group on
// one socket.
func (l *Layout) RowGroupRange(socket, row int) (Range, error) {
	pa, err := l.mapper.Encode(geometry.MediaAddr{Bank: firstBank(l.g, socket), Row: row, Col: 0})
	if err != nil {
		return Range{}, err
	}
	return Range{Start: pa, End: pa + uint64(l.g.RowGroupBytes())}, nil
}

// OfflineRangesForRows returns the coalesced physical ranges backing the
// given media rows on every socket, sized exactly; the rows may come in any
// order and repeat. Offlining the ranges removes the rows from allocatable
// memory (the mitigation of §6, built on the kernel's faulty-page
// offlining [15]).
func (l *Layout) OfflineRangesForRows(rows []int) ([]Range, error) {
	starts := make([]uint64, 0, l.g.Sockets*len(rows))
	for s := 0; s < l.g.Sockets; s++ {
		for _, row := range rows {
			r, err := l.RowGroupRange(s, row)
			if err != nil {
				return nil, err
			}
			starts = append(starts, r.Start)
		}
	}
	return rowGroupRuns(starts, uint64(l.g.RowGroupBytes())), nil
}

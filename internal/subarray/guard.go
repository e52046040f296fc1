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
// union of the guard positions' preimages under every enabled internal
// transformation (rank mirroring fixes rows 0-3; B-side inversion maps them
// to rows 504-507 of their 512-row block), so offlining these media rows
// guarantees that no allocatable row is internally adjacent to a boundary.
//
// For a true power-of-two layout the result is empty: real subarray
// boundaries provide natural isolation.
func (l *Layout) BoundaryGuardRows(transforms addr.TransformConfig) []int {
	if !l.artificial {
		return nil
	}
	set := make(map[int]bool)
	for start := 0; start < l.g.RowsPerBank; start += l.rowsPerGroup {
		for k := 0; k < GuardRowsPerBoundary; k++ {
			p := start + k
			// Preimages of internal guard position p under each
			// rank/side transform combination.
			candidates := []int{p}
			if transforms.Inversion {
				candidates = append(candidates, addr.InvertRow(p))
			}
			if transforms.Mirroring {
				candidates = append(candidates, addr.MirrorRow(p))
				if transforms.Inversion {
					candidates = append(candidates, addr.MirrorRow(addr.InvertRow(p)))
				}
			}
			if transforms.Scrambling {
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

// rowGroupRanges returns the physical ranges of one media row's row group
// on one socket.
func (l *Layout) rowGroupRanges(socket, row int) ([]Range, error) {
	pa, err := l.mapper.Encode(geometry.MediaAddr{Bank: firstBank(l.g, socket), Row: row, Col: 0})
	if err != nil {
		return nil, err
	}
	return []Range{{Start: pa, End: pa + uint64(l.g.RowGroupBytes())}}, nil
}

// OfflineRangesForRows returns the coalesced physical ranges backing the
// given media rows on every socket; offlining them removes the rows from
// allocatable memory (the mitigation of §6, built on the kernel's
// faulty-page offlining [15]).
func (l *Layout) OfflineRangesForRows(rows []int) ([]Range, error) {
	var out []Range
	for s := 0; s < l.g.Sockets; s++ {
		for _, row := range rows {
			rs, err := l.rowGroupRanges(s, row)
			if err != nil {
				return nil, err
			}
			out = append(out, rs...)
		}
	}
	return coalesce(out), nil
}

// RepairOfflineRows returns, per socket, the media rows whose pages must be
// offlined because a row repair crosses a subarray boundary (§6): for every
// inter-subarray repair, every media row that resolves to the repaired
// internal row on either half-row side of the affected bank.
func RepairOfflineRows(g geometry.Geometry, rt *addr.RepairTable, transforms addr.TransformConfig) map[int][]int {
	out := make(map[int][]int)
	if rt == nil {
		return out
	}
	im := addr.NewInternalMapper(g, transforms)
	seen := make(map[[2]int]bool) // (socket, row)
	for _, r := range rt.InterSubarrayRepairs() {
		for _, side := range []addr.Side{addr.SideA, addr.SideB} {
			media := im.MediaRow(r.Bank, r.From, side)
			key := [2]int{r.Bank.Socket, media}
			if !seen[key] {
				seen[key] = true
				out[r.Bank.Socket] = append(out[r.Bank.Socket], media)
			}
		}
	}
	for s := range out {
		sort.Ints(out[s])
	}
	return out
}

// OverheadReport quantifies the DRAM reserved (unusable) under a layout,
// the §6 / §3 accounting that compares Siloz (~0-1.6%) against guard-row
// schemes like ZebRAM (50-80%).
type OverheadReport struct {
	// TotalBytes is the server's DRAM capacity.
	TotalBytes uint64
	// GuardBytes is DRAM lost to artificial-boundary guard rows.
	GuardBytes uint64
	// RepairBytes is DRAM lost to offlined inter-subarray repaired rows.
	RepairBytes uint64
}

// Overhead computes the reservation accounting for a layout, transforms,
// and optional repair table.
func (l *Layout) Overhead(transforms addr.TransformConfig, rt *addr.RepairTable) OverheadReport {
	rep := OverheadReport{TotalBytes: uint64(l.g.TotalBytes())}
	guardRows := l.BoundaryGuardRows(transforms)
	rep.GuardBytes = uint64(len(guardRows)) * uint64(l.g.RowGroupBytes()) * uint64(l.g.Sockets)
	for _, rows := range RepairOfflineRows(l.g, rt, transforms) {
		rep.RepairBytes += uint64(len(rows)) * uint64(l.g.RowGroupBytes())
	}
	return rep
}

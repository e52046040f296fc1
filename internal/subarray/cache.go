package subarray

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/addr"
	"repro/internal/geometry"
)

// Because physical-to-media mappings are fixed by BIOS settings (§2.4), the
// subarray group address ranges computed during early boot can be cached in
// a bootloader or firmware variable and reloaded on subsequent boots (§5.3).
// This file implements that cache as a JSON snapshot, keyed by the geometry
// so a configuration change invalidates it.

// layoutSnapshot is the serialized form.
type layoutSnapshot struct {
	Geometry     geometry.Geometry `json:"geometry"`
	RowsPerGroup int               `json:"rows_per_group"`
	Artificial   bool              `json:"artificial"`
	Groups       [][]groupSnapshot `json:"groups"`
}

type groupSnapshot struct {
	Socket   int     `json:"socket"`
	Index    int     `json:"index"`
	FirstRow int     `json:"first_row"`
	LastRow  int     `json:"last_row"`
	Ranges   []Range `json:"ranges"`
}

// Save writes the layout to w for reuse on later boots.
func (l *Layout) Save(w io.Writer) error {
	snap := layoutSnapshot{
		Geometry:     l.g,
		RowsPerGroup: l.rowsPerGroup,
		Artificial:   l.artificial,
		Groups:       make([][]groupSnapshot, len(l.groups)),
	}
	for s, groups := range l.groups {
		snap.Groups[s] = make([]groupSnapshot, len(groups))
		for i, grp := range groups {
			snap.Groups[s][i] = groupSnapshot{
				Socket: grp.Socket, Index: grp.Index,
				FirstRow: grp.FirstRow, LastRow: grp.LastRow,
				Ranges: grp.Ranges,
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(snap)
}

// Load restores a cached layout, validating it against the booting system's
// geometry; a mismatch (e.g. changed DIMM population or subarray size boot
// parameter) is an error, forcing recomputation.
func Load(r io.Reader, g geometry.Geometry, mapper addr.Mapper) (*Layout, error) {
	var snap layoutSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("subarray: decoding cached layout: %w", err)
	}
	if snap.Geometry != g {
		return nil, fmt.Errorf("subarray: cached layout is for a different geometry")
	}
	l := &Layout{
		g: g, mapper: mapper,
		rowsPerGroup: snap.RowsPerGroup,
		artificial:   snap.Artificial,
		groups:       make([][]*Group, len(snap.Groups)),
	}
	if snap.RowsPerGroup <= 0 || g.RowsPerBank%snap.RowsPerGroup != 0 {
		return nil, fmt.Errorf("subarray: cached layout has invalid group size %d", snap.RowsPerGroup)
	}
	want := g.RowsPerBank / snap.RowsPerGroup
	total := 0
	for _, groups := range snap.Groups {
		for _, gs := range groups {
			total += len(gs.Ranges)
		}
	}
	// Every group's ranges are carved, exact-size, out of one array; a
	// sorted copy of it checks that no two groups overlap.
	backing := make([]Range, 0, total)
	for s, groups := range snap.Groups {
		if len(groups) != want {
			return nil, fmt.Errorf("subarray: cached socket %d has %d groups, want %d", s, len(groups), want)
		}
		l.groups[s] = make([]*Group, len(groups))
		for i, gs := range groups {
			if gs.Socket != s || gs.Index != i {
				return nil, fmt.Errorf("subarray: cached group (%d,%d) mislabeled as (%d,%d)",
					s, i, gs.Socket, gs.Index)
			}
			for j, r := range gs.Ranges {
				if r.Start >= r.End || (j > 0 && r.Start <= gs.Ranges[j-1].End) {
					return nil, fmt.Errorf("subarray: cached group (%d,%d) range %d %v is empty or not sorted and merged",
						s, i, j, r)
				}
			}
			off := len(backing)
			backing = append(backing, gs.Ranges...)
			grp := &Group{
				Socket: gs.Socket, Index: gs.Index,
				FirstRow: gs.FirstRow, LastRow: gs.LastRow,
				Ranges: backing[off:len(backing):len(backing)],
			}
			if grp.Bytes() != l.GroupBytes() {
				return nil, fmt.Errorf("subarray: cached group (%d,%d) covers %d bytes, want %d",
					s, i, grp.Bytes(), l.GroupBytes())
			}
			l.groups[s][i] = grp
		}
	}
	all := slices.Clone(backing)
	slices.SortFunc(all, byStart)
	for j := 1; j < len(all); j++ {
		if all[j].Start < all[j-1].End {
			return nil, fmt.Errorf("subarray: cached ranges %v and %v overlap", all[j-1], all[j])
		}
	}
	return l, nil
}

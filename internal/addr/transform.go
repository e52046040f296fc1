package addr

import (
	"fmt"

	"repro/internal/geometry"
)

// TransformConfig selects which DIMM-internal row address transformations a
// module applies (§6). Every transformation is an involution over the
// low-order row address bits, so the chain is its own inverse.
type TransformConfig struct {
	// Mirroring applies DDR4 address mirroring on odd ranks: bit pairs
	// <b3,b4>, <b5,b6> and <b7,b8> are swapped (Table 1).
	Mirroring bool
	// Inversion applies DDR4 address inversion on B-side half-rows:
	// bits [b3, b8] are inverted (Table 1).
	Inversion bool
	// Scrambling applies vendor-specific row address scrambling: bits b1
	// and b2 are each XOR-ed with b3 (§6). It affects ordering within
	// 8-row blocks only, never their contiguity.
	Scrambling bool
}

// AllTransforms enables every standardized and vendor transformation.
func AllTransforms() TransformConfig {
	return TransformConfig{Mirroring: true, Inversion: true, Scrambling: true}
}

// MirrorRow swaps bit pairs <b3,b4>, <b5,b6>, <b7,b8> of a row address.
func MirrorRow(row int) int {
	const (
		m3 = 1 << 3
		m4 = 1 << 4
		m5 = 1 << 5
		m6 = 1 << 6
		m7 = 1 << 7
		m8 = 1 << 8
	)
	out := row &^ (m3 | m4 | m5 | m6 | m7 | m8)
	if row&m3 != 0 {
		out |= m4
	}
	if row&m4 != 0 {
		out |= m3
	}
	if row&m5 != 0 {
		out |= m6
	}
	if row&m6 != 0 {
		out |= m5
	}
	if row&m7 != 0 {
		out |= m8
	}
	if row&m8 != 0 {
		out |= m7
	}
	return out
}

// InvertRow inverts bits [b3, b8] of a row address.
func InvertRow(row int) int {
	const mask = 0b1_1111_1000 // bits 3..8
	return row ^ mask
}

// ScrambleRow XORs bits b1 and b2 with b3.
func ScrambleRow(row int) int {
	if row&(1<<3) != 0 {
		return row ^ (1<<1 | 1<<2)
	}
	return row
}

// InternalMapper translates a row's media address into the internal row
// index the DIMM actually drives, per rank and half-row side. Electrical
// adjacency — and therefore Rowhammer blast radius — is defined over
// internal rows, so the DRAM disturbance model consults this mapping (§6).
//
// Row repairs are modelled separately (see RepairTable); the mapper itself
// is a bijection on [0, RowsPerBank) for every (bank, side).
type InternalMapper struct {
	g   geometry.Geometry
	cfg TransformConfig
}

// NewInternalMapper builds an internal mapper for g.
func NewInternalMapper(g geometry.Geometry, cfg TransformConfig) *InternalMapper {
	return &InternalMapper{g: g, cfg: cfg}
}

// InternalRow returns the internal row index that a media row address
// resolves to on the given bank and half-row side.
func (im *InternalMapper) InternalRow(bank geometry.BankID, mediaRow int, side Side) int {
	if mediaRow < 0 || mediaRow >= im.g.RowsPerBank {
		panic(fmt.Sprintf("addr: media row %d out of range [0,%d)", mediaRow, im.g.RowsPerBank))
	}
	row := mediaRow
	if im.cfg.Scrambling {
		row = ScrambleRow(row)
	}
	if im.cfg.Mirroring && bank.Rank%2 == 1 {
		row = MirrorRow(row)
	}
	if im.cfg.Inversion && side == SideB {
		row = InvertRow(row)
	}
	return row
}

// MediaRow is the inverse of InternalRow: the media row address whose
// half-row on the given side lands on the internal row.
func (im *InternalMapper) MediaRow(bank geometry.BankID, internal int, side Side) int {
	if internal < 0 || internal >= im.g.RowsPerBank {
		panic(fmt.Sprintf("addr: internal row %d out of range [0,%d)", internal, im.g.RowsPerBank))
	}
	row := internal
	if im.cfg.Inversion && side == SideB {
		row = InvertRow(row)
	}
	if im.cfg.Mirroring && bank.Rank%2 == 1 {
		row = MirrorRow(row)
	}
	if im.cfg.Scrambling {
		row = ScrambleRow(row)
	}
	return row
}

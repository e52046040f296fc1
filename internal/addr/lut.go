package addr

import (
	"fmt"

	"repro/internal/geometry"
)

// maxInterleaveEntries caps the size of a per-geometry interleave table
// (entries are 4 bytes; the default server needs 24576, DDR5 49152). A
// geometry whose row group exceeds the cap keeps the arithmetic path.
const maxInterleaveEntries = 1 << 20

// interleaveLUT precomputes the round-robin cache-line interleave of one
// row group as bit-packed lookup tables, built once per geometry at mapper
// construction:
//
//   - fwd maps a cache line's index within its row group to the dense bank
//     index (high 16 bits) and the line's position within that bank's row
//     (low 16 bits), replacing a divide and a modulo per decode;
//   - bankIDs expands a dense within-socket bank index to its structured
//     BankID, replacing the three divmods of geometry.BankFromSocketFlat.
//
// The tables depend only on the interleave width (how many banks a row
// group spreads over) and the row size, so one LUT serves every socket.
type interleaveLUT struct {
	banks    int
	rowLines int      // cache lines per row
	fwd      []uint32 // line-in-group -> bankIdx<<16 | lineInBank
	divBanks fastDiv  // reciprocal fallback when fwd is not tabulated
	bankIDs  []geometry.BankID
}

// newInterleaveLUT builds tables for rows interleaved over banks
// consecutive banks of a socket with g's row size. bankIDs always covers
// the full socket so partitioned mappings can offset into it; fwd is nil
// (arithmetic fallback) when the row group is too large to tabulate.
func newInterleaveLUT(g geometry.Geometry, banks int) (*interleaveLUT, error) {
	rowLines := g.RowBytes / geometry.CacheLineSize
	lut := &interleaveLUT{banks: banks, rowLines: rowLines}
	var err error
	if lut.divBanks, err = newFastDiv(int64(banks), int64(banks)*int64(rowLines)-1); err != nil {
		return nil, err
	}
	lut.bankIDs = make([]geometry.BankID, g.BanksPerSocket())
	for i := range lut.bankIDs {
		lut.bankIDs[i] = geometry.BankFromSocketFlat(g, 0, i)
	}
	entries := banks * rowLines
	if entries > maxInterleaveEntries {
		return lut, nil // fall back to divide/modulo per decode
	}
	if banks > 0xffff || rowLines > 0xffff {
		return nil, fmt.Errorf("addr: interleave %d banks x %d lines overflows LUT packing", banks, rowLines)
	}
	lut.fwd = make([]uint32, entries)
	for line := 0; line < entries; line++ {
		lut.fwd[line] = uint32(line%banks)<<16 | uint32(line/banks)
	}
	return lut, nil
}

// split resolves a cache line's index within its row group to (dense bank
// index, line within the bank's row).
func (l *interleaveLUT) split(line int64) (bankIdx, lineInBank int) {
	if l.fwd != nil {
		e := l.fwd[line]
		return int(e >> 16), int(e & 0xffff)
	}
	q, r := l.divBanks.divmod(line)
	return int(r), int(q)
}

// bank expands a dense within-socket bank index for the given socket.
func (l *interleaveLUT) bank(socket, idx int) geometry.BankID {
	b := l.bankIDs[idx]
	b.Socket = socket
	return b
}

// bounds caches a geometry's scalar limits so the encode hot path can
// validate a media address and flatten its bank ID without copying the
// Geometry struct per call (MediaAddr.Valid takes Geometry by value, and
// the copy dominates an otherwise division-free Encode).
type bounds struct {
	sockets, dimms, ranks, banks int
	rows, rowBytes               int
}

func newBounds(g geometry.Geometry) bounds {
	return bounds{
		sockets: g.Sockets, dimms: g.DIMMsPerSocket,
		ranks: g.RanksPerDIMM, banks: g.BanksPerRank,
		rows: g.RowsPerBank, rowBytes: g.RowBytes,
	}
}

// valid mirrors MediaAddr.Valid against the cached limits.
func (b bounds) valid(a geometry.MediaAddr) bool {
	return uint(a.Bank.Socket) < uint(b.sockets) &&
		uint(a.Bank.DIMM) < uint(b.dimms) &&
		uint(a.Bank.Rank) < uint(b.ranks) &&
		uint(a.Bank.Bank) < uint(b.banks) &&
		uint(a.Row) < uint(b.rows) &&
		uint(a.Col) < uint(b.rowBytes)
}

// socketFlat is the inverse of geometry.BankFromSocketFlat against the
// cached limits.
func (b bounds) socketFlat(id geometry.BankID) int {
	return (id.DIMM*b.ranks+id.Rank)*b.banks + id.Bank
}

// flat mirrors BankID.Flat against the cached limits.
func (b bounds) flat(id geometry.BankID) int {
	return ((id.Socket*b.dimms+id.DIMM)*b.ranks+id.Rank)*b.banks + id.Bank
}

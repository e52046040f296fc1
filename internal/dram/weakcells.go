package dram

import (
	"repro/internal/addr"
	"repro/internal/geometry"
)

// weakCell is one Rowhammer-susceptible cell of a half-row: the bit index
// it occupies and the value it decays to when disturbed past the threshold
// (true-cells fail toward 0, anti-cells toward 1).
type weakCell struct {
	bit     int
	failsTo bool
}

// splitmix64 is a small, high-quality deterministic mixer used to derive
// per-cell randomness from structural coordinates without any global RNG.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// weakCells deterministically derives the weak-cell population of one
// half-row, appending it to dst. A half-row is vulnerable with probability
// prof.VulnerableRowFraction; vulnerable half-rows contain exactly
// prof.WeakCellsPerRow weak cells at pseudo-random bit positions. The
// derivation depends only on the DIMM seed and the cell's physical
// coordinates, so repeated hammering of the same row flips the same cells —
// matching the repeatability of real Rowhammer errors.
//
// seen is a bitset of at least bitsPerHalfRow bits, all clear, that rejects
// repeated bit draws; weakCells clears the bits it set before returning, so
// callers on the hot path reuse one bitset and one dst buffer and a threshold
// crossing allocates nothing. The profiles in use derive 2 to 4000 cells per
// half-row, so duplicate checks must stay O(1).
func weakCells(dst []weakCell, seen []uint64, prof Profile, socket, dimm int, bank geometry.BankID, side addr.Side, virtRow, bitsPerHalfRow int) []weakCell {
	h := splitmix64(uint64(prof.Seed))
	h = splitmix64(h ^ uint64(socket)<<48 ^ uint64(dimm)<<40 ^ uint64(bank.Rank)<<32 ^ uint64(bank.Bank)<<24 ^ uint64(side)<<16)
	h = splitmix64(h ^ uint64(virtRow))

	// Vulnerability draw.
	const scale = 1 << 53
	if float64(h>>11)/scale >= prof.VulnerableRowFraction {
		return dst
	}
	base := len(dst)
	for len(dst)-base < prof.WeakCellsPerRow {
		h = splitmix64(h)
		bit := int(h % uint64(bitsPerHalfRow))
		if w, m := bit>>6, uint64(1)<<(bit&63); seen[w]&m == 0 {
			seen[w] |= m
			dst = append(dst, weakCell{bit: bit, failsTo: h&(1<<60) != 0})
		}
	}
	for _, c := range dst[base:] {
		seen[c.bit>>6] = 0
	}
	return dst
}

// newCellBitset returns a clear bitset for weakCells' duplicate check.
func newCellBitset(bitsPerHalfRow int) []uint64 {
	return make([]uint64, (bitsPerHalfRow+63)>>6)
}

// WeakCellCount reports how many weak cells a half-row holds; exported for
// tests and analysis tooling.
func (m *Module) WeakCellCount(bank geometry.BankID, side addr.Side, mediaRow int) int {
	bs := m.bank(bank)
	virt, _ := m.internalTarget(bs, mediaRow, side)
	bits := m.g.RowBytes / 2 * 8
	return len(weakCells(nil, newCellBitset(bits), m.prof, m.socket, m.dimm, bank, side, virt, bits))
}

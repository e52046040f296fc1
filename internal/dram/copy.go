package dram

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/geometry"
)

// CopyPhys makes n bytes at dstPA of m equal the n bytes at srcPA of src —
// the same Memory (page migration, defragmentation) or another host's
// (cross-host moves) — and reports whether the source held a nonzero byte.
// It is the walker's sibling for two ranges, and like it works a stripe at a
// time and costs what the data held costs: a source row that is absent or
// zero over the range is not moved, and the destination row under it is
// cleared (released, when the range covers all of it), never materialized.
// The answer and the bytes are a snapshot, row by row; a caller that acts on
// them must learn of later stores another way (migration has its dirty log).
//
// Where the census counts no live row in the 2 MiB regions both sides have
// reached, the copy, having decoded and checked both stripes there, passes
// to the nearer of the two regions' ends at once: neither side holds a byte
// to move or clear. A side whose region holds rows still has each segment's
// banks scanned for its row.
//
// Both ranges must lie at the same offset within a cache line and under
// mappings of equal stripe width, which is what a frame copied under one
// mapper always has; they must not overlap. scratch is the caller's bounce
// row, at least one row long. A range that runs off the end of either memory
// is copied up to there and then fails with the mapper's ErrOutOfRange, as
// the walker does. CopyPhys allocates nothing.
func (m *Memory) CopyPhys(dstPA uint64, src *Memory, srcPA uint64, n int, scratch []byte) (nonzero bool, err error) {
	if (dstPA^srcPA)&(geometry.CacheLineSize-1) != 0 {
		return false, fmt.Errorf("dram: copy %#x -> %#x: the addresses differ within a cache line", srcPA, dstPA)
	}
	if len(scratch) < src.g.RowBytes {
		return false, fmt.Errorf("dram: copy scratch is %d bytes, a row is %d", len(scratch), src.g.RowBytes)
	}
	for done := 0; done < n; {
		sp, dp := srcPA+uint64(done), dstPA+uint64(done)
		ss, err := src.stripeAt(sp)
		if err != nil {
			return nonzero, err
		}
		ds, err := m.stripeAt(dp)
		if err != nil {
			return nonzero, err
		}
		if ss.Banks != ds.Banks || ss.Len != ds.Len {
			return nonzero, fmt.Errorf("dram: copy between stripes of %d banks x %d bytes and %d x %d",
				ss.Banks, ss.Len, ds.Banks, ds.Len)
		}
		if !src.census.holds(sp) && !m.census.holds(dp) {
			done += int(min(uint64(n-done), src.census.regionEnd(sp)-sp, m.census.regionEnd(dp)-dp))
			continue
		}
		// Stripes need not divide pages (1.5 MiB against 2 MiB on the
		// 192-bank server), so two page-aligned frames generally sit at
		// different stripe offsets: a segment ends where either side's does.
		seg := int(min(int64(n-done), ss.Len-ss.Off, ds.Len-ds.Off))
		if m.copySegment(dp, &ds, src, sp, &ss, seg, scratch) {
			nonzero = true
		}
		done += seg
	}
	return nonzero, nil
}

// stripeAt decodes the stripe around pa and makes the walker's once-per-
// stripe geometry checks on it.
func (m *Memory) stripeAt(pa uint64) (addr.Stripe, error) {
	st, err := m.mapper.Stripe(pa)
	if err == nil && !m.checkStripe(&st) {
		err = m.stripeError(st)
	}
	return st, err
}

// copySegment copies the n bytes (n > 0) at ss.Off of the source stripe,
// decoded at sp, to ds.Off of the destination stripe, decoded at dp; both lie
// inside their stripes.
//
// Line j of the segment is line ls+j of the source stripe and ld+j of the
// destination's. With the interleave width B equal on both sides, the lines
// the k-th source bank holds — j = k, k+B, k+2B, … at consecutive columns —
// land in one destination bank, (ld+k) mod B, at consecutive columns too: a
// contiguous range of one source row becomes the same-sized range of one
// destination row, shifted by a constant number of columns.
//
// Locking. One rowsMu is held at a time. The source range is tested and
// lifted into scratch under the source module's lock; that lock is dropped;
// the bytes are stored, or the stale range cleared, under the destination
// module's. Every cache line moves under the lock of the module that stores
// it, so a concurrent reader or writer of either side never sees a torn one,
// and two copies running in opposite directions (cross-socket migrations,
// cross-host moves A→B and B→A) cannot wait on each other.
func (m *Memory) copySegment(dp uint64, ds *addr.Stripe, src *Memory, sp uint64, ss *addr.Stripe, n int, scratch []byte) (nonzero bool) {
	banks := ss.Banks
	so := int(ss.Off)
	ls, ld := so>>lineShift, int(ds.Off)>>lineShift
	lines := (so+n-1)>>lineShift - ls + 1
	// Only the segment's first and last lines can be partial: head bytes of
	// the first lie before the range, tail bytes of the last after it.
	head := so & (geometry.CacheLineSize - 1)
	tail := -(so + n) & (geometry.CacheLineSize - 1)
	qs, rs := int(uint32(ls)/uint32(banks)), int(uint32(ls)%uint32(banks))
	qd, rd := int(uint32(ld)/uint32(banks)), int(uint32(ld)%uint32(banks))

	// Most segments of a guest's address space hold no row on either side,
	// and a side that holds none needs no lock per bank. A side whose region
	// the census counts no row in holds none in this stripe either.
	nb := min(lines, banks)
	srcLive := src.census.holds(sp) && src.anyRow(ss, rs, nb)
	dstLive := m.census.holds(dp) && m.anyRow(ds, rd, nb)
	if !srcLive && !dstLive {
		return false
	}
	at := stripeRegions(dp, ds)
	srcMods, srcRefs := src.modules[ss.Socket], src.bankRefs[ss.Bank0:ss.Bank0+banks]
	dstMods, dstRefs := m.modules[ds.Socket], m.bankRefs[ds.Bank0:ds.Bank0+banks]
	for k := 0; k < nb; k++ {
		// The bank's share of the segment is bytes [lo, hi) counted from
		// its first line: (lines-k)/banks lines, rounded up.
		lo, hi := 0, (lines-k+banks-1)/banks<<lineShift
		if k == 0 {
			lo = head
		}
		if k == (lines-1)%banks {
			hi -= tail
		}
		cs, cd, w := qs<<lineShift+lo, qd<<lineShift+lo, hi-lo

		moved := false
		if srcLive {
			ref := srcRefs[rs]
			mod := srcMods[ref.dimm]
			mod.rowsMu.Lock()
			if row := mod.rows.row(int(ref.idx), ss.Row); row != nil && !AllZero(row[cs:cs+w]) {
				moved = true
				copy(scratch, row[cs:cs+w])
			}
			mod.rowsMu.Unlock()
		}
		if moved || dstLive {
			ref := dstRefs[rd]
			mod := dstMods[ref.dimm]
			mod.rowsMu.Lock()
			switch {
			case moved:
				copy(mod.rows.rowAlloc(int(ref.idx), ds.Row, at)[cd:], scratch[:w])
				nonzero = true
			case w == m.g.RowBytes:
				mod.rows.release(int(ref.idx), ds.Row, at)
			default:
				if stale := mod.rows.row(int(ref.idx), ds.Row); stale != nil {
					clear(stale[cd : cd+w])
				}
			}
			mod.rowsMu.Unlock()
		}

		if rs++; rs == banks {
			rs, qs = 0, qs+1
		}
		if rd++; rd == banks {
			rd, qd = 0, qd+1
		}
	}
	return nonzero
}

// anyRow reports whether any of the nb banks of the stripe from its r-th on,
// wrapping, holds the stripe's row, taking each DIMM's lock once per run of
// its banks.
func (m *Memory) anyRow(st *addr.Stripe, r, nb int) bool {
	mods, refs := m.modules[st.Socket], m.bankRefs[st.Bank0:st.Bank0+st.Banks]
	for k := 0; k < nb; {
		dimm := refs[r].dimm
		mod := mods[dimm]
		mod.rowsMu.Lock()
		for ; k < nb && refs[r].dimm == dimm; k++ {
			if mod.rows.has(int(refs[r].idx), st.Row) {
				mod.rowsMu.Unlock()
				return true
			}
			if r++; r == st.Banks {
				r = 0
			}
		}
		mod.rowsMu.Unlock()
	}
	return false
}

package dram

import "repro/internal/geometry"

// rowStore backs media-row data with a slab arena of fixed-size row slots
// instead of a per-row map allocation. The DRAM model materializes a row's
// storage on first write and drops it again on a full-row scrub, so under a
// churning fleet (VM create → write → scrub → destroy, thousands of times)
// the old map implementation allocated and garbage-collected an 8 KiB slice
// per row touched. The arena recycles released slots through a free list:
// steady-state churn performs zero allocations, and row data stays packed in
// large slabs instead of scattered heap objects.
//
// Indexing is flat: a (rank, bank) pair selects a lazily-allocated per-bank
// table of int32 slot references (slot+1; 0 = row absent), so the hot lookup
// is two array indexes — no hashing, no map buckets. Only banks that were
// ever written pay for their table.
//
// rowStore is not safe for concurrent use; Module guards it with rowsMu
// exactly as it guarded the map.
type rowStore struct {
	rowBytes     int
	banksPerRank int
	slabShift    uint      // log2(rows per slab): slot lookup is a shift and a mask, not a divide
	banks        [][]int32 // (rank*banksPerRank+bank) -> per-row slot+1, nil until touched
	rowsPer      int       // rows per bank
	slabs        [][]byte  // slab arena; slot s lives in slabs[s>>slabShift]
	free         []int32   // released slots awaiting reuse (LIFO)
	next         int32     // next never-used slot
	live         int       // rows currently materialized
}

// rowStoreSlabBytes sizes slabs at ~1 MiB (the largest power-of-two row
// count that fits) so churn touches few large allocations; a geometry with
// rows larger than that gets one row per slab.
const rowStoreSlabBytes = 1 << 20

func newRowStore(g geometry.Geometry) *rowStore {
	var slabShift uint
	for g.RowBytes<<(slabShift+1) <= rowStoreSlabBytes {
		slabShift++
	}
	return &rowStore{
		rowBytes:     g.RowBytes,
		banksPerRank: g.BanksPerRank,
		slabShift:    slabShift,
		banks:        make([][]int32, g.BanksPerDIMM()),
		rowsPer:      g.RowsPerBank,
	}
}

// bankIndex flattens a (rank, bank) pair; callers pass validated IDs.
func (s *rowStore) bankIndex(rank, bank int) int {
	return rank*s.banksPerRank + bank
}

// slot returns the backing bytes of an allocated slot.
func (s *rowStore) slot(ref int32) []byte {
	off := int(ref) & (1<<s.slabShift - 1) * s.rowBytes
	return s.slabs[int(ref)>>s.slabShift][off : off+s.rowBytes]
}

// row returns the row's bytes, or nil if the row was never materialized.
func (s *rowStore) row(bankIdx, mediaRow int) []byte {
	tbl := s.banks[bankIdx]
	if tbl == nil {
		return nil
	}
	ref := tbl[mediaRow]
	if ref == 0 {
		return nil
	}
	return s.slot(ref - 1)
}

// rowAlloc returns the row's bytes, materializing a zeroed slot on first
// touch — from the free list when churn released one, from a fresh slab
// otherwise.
func (s *rowStore) rowAlloc(bankIdx, mediaRow int) []byte {
	tbl := s.banks[bankIdx]
	if tbl == nil {
		tbl = make([]int32, s.rowsPer)
		s.banks[bankIdx] = tbl
	}
	if ref := tbl[mediaRow]; ref != 0 {
		return s.slot(ref - 1)
	}
	var ref int32
	if n := len(s.free); n > 0 {
		ref = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		ref = s.next
		s.next++
		if int(ref)>>s.slabShift >= len(s.slabs) {
			s.slabs = append(s.slabs, make([]byte, s.rowBytes<<s.slabShift))
		}
	}
	tbl[mediaRow] = ref + 1
	s.live++
	return s.slot(ref)
}

// release drops a row's backing, zeroing the slot and queueing it for reuse.
// Releasing an absent row is a no-op (the row already reads as zeros).
func (s *rowStore) release(bankIdx, mediaRow int) {
	tbl := s.banks[bankIdx]
	if tbl == nil {
		return
	}
	ref := tbl[mediaRow]
	if ref == 0 {
		return
	}
	tbl[mediaRow] = 0
	b := s.slot(ref - 1)
	for i := range b {
		b[i] = 0
	}
	s.free = append(s.free, ref-1)
	s.live--
}

// Len reports how many rows are currently materialized.
func (s *rowStore) len() int { return s.live }

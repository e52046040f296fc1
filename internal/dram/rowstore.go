package dram

import (
	"sync"
	"sync/atomic"

	"repro/internal/geometry"
)

// Row storage comes in two parts, so that it costs what the rows held cost
// and not what the geometry could hold.
//
// RowStore, the arena, owns the bytes: fixed-size row slots cut from ~1 MiB
// slabs, shared by every module of a Memory and, when they are built on it
// (NewMemoryOn), by several Memories: a cluster's hosts hold their rows in
// one. A slot a scrub releases goes on a free list and is handed to whichever
// module next materializes a row, on any DIMM, socket or host, so row memory
// follows the rows live across everything on the arena instead of pinning a
// slab per DIMM or per host that ever held one. Steady-state churn (VM
// create → write → scrub → destroy) allocates nothing.
//
// rowIndex is one module's map from (bank, row) to slot: a sparse two-level
// table per bank whose 64-row leaves are allocated on first touch. A bank
// that was never written costs one nil entry; a touched bank costs one
// table of RowsPerBank/64 leaf pointers plus 256 bytes per leaf touched.
//
// Locking. A module's index, and the bytes of the slots it holds, are
// guarded by the module's rowsMu. The arena's mu is a leaf under every
// rowsMu of every Memory on it, taken only to hand out or take back a slot;
// nothing is called under it. A lookup takes no lock: the slot table it reads is published with an
// atomic store whenever a slab is added, and the slot a lookup finds was
// handed out before the index entry naming it was written under rowsMu. The
// Memory's row census (census.go) counts each row born or released here.

// rowLeafShift sizes index leaves at 64 rows (256 bytes of slot references).
const (
	rowLeafShift = 6
	rowLeafRows  = 1 << rowLeafShift
)

// rowLeaf holds slot+1 for 64 consecutive rows of a bank; 0 = row absent.
type rowLeaf [rowLeafRows]int32

// rowStoreSlabBytes sizes slabs at ~1 MiB (the largest power-of-two row
// count that fits) so churn touches few large allocations; a geometry with
// rows larger than that gets one row per slab.
const rowStoreSlabBytes = 1 << 20

// RowStore is the slab allocator of row slots shared by a Memory's modules,
// and by every other Memory built on it. Its slots are all one row size.
type RowStore struct {
	rowBytes  int
	slabShift uint                     // log2(rows per slab): slot lookup is a shift and a mask, not a divide
	slabs     atomic.Pointer[[][]byte] // slot s lives in (*slabs)[s>>slabShift]; replaced, never edited below its length

	mu   sync.Mutex // leaf lock: guards free, next and slab growth
	free []int32    // released slots awaiting reuse (LIFO)
	next int32      // next never-used slot
}

func newRowStore(g geometry.Geometry) *RowStore {
	var slabShift uint
	for g.RowBytes<<(slabShift+1) <= rowStoreSlabBytes {
		slabShift++
	}
	a := &RowStore{rowBytes: g.RowBytes, slabShift: slabShift}
	a.slabs.Store(new([][]byte))
	return a
}

// slot returns the backing bytes of a slot handed out by alloc.
func (a *RowStore) slot(ref int32) []byte {
	off := int(ref) & (1<<a.slabShift - 1) * a.rowBytes
	return (*a.slabs.Load())[int(ref)>>a.slabShift][off : off+a.rowBytes]
}

// alloc hands out a zeroed slot: a released one when there is one, else the
// next never-used one, growing the arena by a slab when it runs out. A grown
// table is published whole; a reader holding the old one never indexes the
// element the append writes.
func (a *RowStore) alloc() int32 {
	a.mu.Lock()
	if n := len(a.free); n > 0 {
		ref := a.free[n-1]
		a.free = a.free[:n-1]
		a.mu.Unlock()
		return ref
	}
	ref := a.next
	a.next++
	if slabs := *a.slabs.Load(); int(ref)>>a.slabShift >= len(slabs) {
		grown := append(slabs, make([]byte, a.rowBytes<<a.slabShift))
		a.slabs.Store(&grown)
	}
	a.mu.Unlock()
	return ref
}

// put takes back a slot its holder has already zeroed.
func (a *RowStore) put(ref int32) {
	a.mu.Lock()
	a.free = append(a.free, ref)
	a.mu.Unlock()
}

// rowIndex is one module's sparse (bank, row) → slot index over an arena. It
// is not safe for concurrent use; Module guards it with rowsMu.
type rowIndex struct {
	arena        *RowStore
	census       *rowCensus // the Memory's live-row count per 2 MiB; nil on a standalone Module
	banksPerRank int
	leaves       int          // leaf pointers per bank: RowsPerBank/64, rounded up
	banks        [][]*rowLeaf // (rank*banksPerRank+bank) -> leaf table, nil until touched
	live         int          // rows currently materialized
}

func newRowIndex(g geometry.Geometry, arena *RowStore, census *rowCensus) *rowIndex {
	return &rowIndex{
		arena:        arena,
		census:       census,
		banksPerRank: g.BanksPerRank,
		leaves:       (g.RowsPerBank + rowLeafRows - 1) >> rowLeafShift,
		banks:        make([][]*rowLeaf, g.BanksPerDIMM()),
	}
}

// bankIndex flattens a (rank, bank) pair; callers pass validated IDs.
func (s *rowIndex) bankIndex(rank, bank int) int {
	return rank*s.banksPerRank + bank
}

// entry returns the row's slot reference cell, or nil when its leaf was
// never allocated.
func (s *rowIndex) entry(bankIdx, mediaRow int) *int32 {
	tbl := s.banks[bankIdx]
	if tbl == nil {
		return nil
	}
	leaf := tbl[mediaRow>>rowLeafShift]
	if leaf == nil {
		return nil
	}
	return &leaf[mediaRow&(rowLeafRows-1)]
}

// has reports whether the row is materialized. It is row without the slot
// lookup, small enough to inline into the walkers' presence scans.
func (s *rowIndex) has(bankIdx, mediaRow int) bool {
	e := s.entry(bankIdx, mediaRow)
	return e != nil && *e != 0
}

// row returns the row's bytes, or nil if the row was never materialized.
func (s *rowIndex) row(bankIdx, mediaRow int) []byte {
	if e := s.entry(bankIdx, mediaRow); e != nil && *e != 0 {
		return s.arena.slot(*e - 1)
	}
	return nil
}

// rowAlloc returns the row's bytes, materializing a zeroed slot on first
// touch (and the bank's table and the row's leaf, when they are new) and
// counting the row in at, the census regions of its stripe.
func (s *rowIndex) rowAlloc(bankIdx, mediaRow int, at regions) []byte {
	tbl := s.banks[bankIdx]
	if tbl == nil {
		tbl = make([]*rowLeaf, s.leaves)
		s.banks[bankIdx] = tbl
	}
	leaf := tbl[mediaRow>>rowLeafShift]
	if leaf == nil {
		leaf = new(rowLeaf)
		tbl[mediaRow>>rowLeafShift] = leaf
	}
	e := &leaf[mediaRow&(rowLeafRows-1)]
	if *e == 0 {
		*e = s.arena.alloc() + 1
		s.live++
		s.census.add(at, 1)
	}
	return s.arena.slot(*e - 1)
}

// release drops a row's backing, zeroing the slot, returning it to the arena
// and uncounting the row from at. Releasing an absent row is a no-op (the row
// already reads as zeros). Leaves stay: a released row's leaf is likely to be
// written again.
func (s *rowIndex) release(bankIdx, mediaRow int, at regions) {
	e := s.entry(bankIdx, mediaRow)
	if e == nil || *e == 0 {
		return
	}
	ref := *e - 1
	*e = 0
	clear(s.arena.slot(ref))
	s.arena.put(ref)
	s.live--
	s.census.add(at, -1)
}

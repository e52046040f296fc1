package dram

import (
	"fmt"
	"sync/atomic"

	"repro/internal/addr"
	"repro/internal/geometry"
)

// censusShift sizes census regions at 2 MiB, the page the hypervisor copies,
// migrates and scrubs.
const censusShift = 21

// rowCensus counts, for every 2 MiB region of a Memory's physical address
// space, the live rows whose stripe overlaps the region. A row's lines are
// spread over its whole stripe, so a region whose count is zero holds no byte
// of any row: it reads as zeros, and a copy or scrub has nothing to do there.
// A stripe that straddles a region boundary (1.5 MiB stripes against 2 MiB
// regions on the 192-bank server) counts each of its rows in every region it
// overlaps.
//
// Rows are born and die only in rowIndex.rowAlloc and rowIndex.release, and
// the count changes there, with an atomic add under the rowsMu of the row's
// module. Readers take no lock: a count read while a store materializes a row
// orders that store after the reader, which is what the walkers' row-by-row
// snapshot already promises.
type rowCensus struct {
	live   []atomic.Int32 // per region: live rows whose stripe overlaps it
	end    uint64         // end of memory: no skip runs past it
	mapper addr.Mapper    // locates the stripe of a row reached by its media address
}

func newRowCensus(g geometry.Geometry, mapper addr.Mapper) rowCensus {
	end := uint64(g.TotalBytes())
	return rowCensus{
		live:   make([]atomic.Int32, (end+1<<censusShift-1)>>censusShift),
		end:    end,
		mapper: mapper,
	}
}

// regions is the run [lo, hi] of census regions one stripe overlaps.
type regions struct{ lo, hi int }

// stripeRegions returns the regions the stripe st, decoded at pa, overlaps.
func stripeRegions(pa uint64, st *addr.Stripe) regions {
	base := pa - uint64(st.Off)
	return regions{int(base >> censusShift), int((base + uint64(st.Len) - 1) >> censusShift)}
}

// locate finds the regions of the stripe holding a row, for the writers that
// reach a row by its media address rather than through a decoded stripe
// (Module.WriteRow, commitFlips): one Encode and one Stripe decode,
// paid only when the row is born or dies. A standalone Module has no census.
func (c *rowCensus) locate(b geometry.BankID, row int) regions {
	if c == nil {
		return regions{}
	}
	pa, err := c.mapper.Encode(geometry.MediaAddr{Bank: b, Row: row})
	if err != nil {
		panic(fmt.Sprintf("dram: row %d of %v has no physical address: %v", row, b, err))
	}
	st, err := c.mapper.Stripe(pa)
	if err != nil {
		panic(fmt.Sprintf("dram: row %d of %v has no stripe: %v", row, b, err))
	}
	return stripeRegions(pa, &st)
}

// add counts a row born (delta 1) or gone (-1) in every region of its
// stripe. The caller holds the rowsMu of the row's module.
func (c *rowCensus) add(at regions, delta int32) {
	if c == nil {
		return
	}
	for r := at.lo; r <= at.hi; r++ {
		c.live[r].Add(delta)
	}
}

// holds reports whether a live row's stripe overlaps the region holding pa
// (pa < end). It takes no lock.
func (c *rowCensus) holds(pa uint64) bool {
	return c.live[pa>>censusShift].Load() != 0
}

// regionEnd returns where the region holding pa ends, or the end of memory
// when that comes first.
func (c *rowCensus) regionEnd(pa uint64) uint64 {
	return min((pa>>censusShift+1)<<censusShift, c.end)
}

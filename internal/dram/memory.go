package dram

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/addr"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

// Memory is the whole server's DRAM: one Module per DIMM, plus the memory
// controller's physical-to-media mapping. It is the single interface the
// hypervisor, workloads and attack code use to touch "hardware".
type Memory struct {
	g       geometry.Geometry
	mapper  addr.Mapper
	modules [][]*Module // [socket][dimm]
	// bankRefs resolves a dense within-socket bank index (geometry.BankFromSocketFlat)
	// to its DIMM and the bank's number on that DIMM, so the bulk walker
	// divides nothing per bank.
	bankRefs []bankRef
	// census counts the live rows behind every 2 MiB, so the walkers and
	// the copy pass over empty memory a region at a time.
	census rowCensus
	// rows is the arena the modules' rows live in, perhaps shared with
	// other Memories.
	rows *RowStore
}

// bankRef locates one of a socket's banks: which DIMM, and which of that
// DIMM's banks (rowIndex.bankIndex).
type bankRef struct{ dimm, idx int32 }

// NewMemory builds server memory. profiles are assigned to DIMM slots
// round-robin within each socket (pass six profiles to model the paper's
// six distinct DIMMs per socket, or one profile for a uniform population).
// repairs may be nil.
func NewMemory(g geometry.Geometry, mapper addr.Mapper, profiles []Profile, repairs *addr.RepairTable) (*Memory, error) {
	return NewMemoryOn(nil, g, mapper, profiles, repairs)
}

// NewMemoryOn is NewMemory with the rows stored in rows, the arena of
// another Memory (its RowStore), so that the two share slabs and recycle
// each other's released slots; nil means an arena of its own. Each Memory
// still counts and indexes only its own rows. An arena cut for another row
// size is refused.
func NewMemoryOn(rows *RowStore, g geometry.Geometry, mapper addr.Mapper, profiles []Profile, repairs *addr.RepairTable) (*Memory, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if rows == nil {
		rows = newRowStore(g)
	} else if rows.rowBytes != g.RowBytes {
		return nil, fmt.Errorf("dram: a row store of %d-byte rows cannot hold %d-byte rows", rows.rowBytes, g.RowBytes)
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("dram: at least one profile required")
	}
	if g.RowGroupBytes()>>lineShift > math.MaxUint32 {
		return nil, fmt.Errorf("dram: a %d-byte row group has too many cache lines to index", g.RowGroupBytes())
	}
	mem := &Memory{
		g: g, mapper: mapper, modules: make([][]*Module, g.Sockets),
		bankRefs: make([]bankRef, g.BanksPerSocket()),
		census:   newRowCensus(g, mapper),
		rows:     rows,
	}
	for i := range mem.bankRefs {
		mem.bankRefs[i] = bankRef{dimm: int32(i / g.BanksPerDIMM()), idx: int32(i % g.BanksPerDIMM())}
	}
	for s := 0; s < g.Sockets; s++ {
		mem.modules[s] = make([]*Module, g.DIMMsPerSocket)
		for d := 0; d < g.DIMMsPerSocket; d++ {
			mod, err := newModule(g, profiles[d%len(profiles)], s, d, repairs, rows, &mem.census)
			if err != nil {
				return nil, err
			}
			mem.modules[s][d] = mod
		}
	}
	return mem, nil
}

// Geometry returns the server geometry.
func (m *Memory) Geometry() geometry.Geometry { return m.g }

// RowStore returns the arena the memory's rows live in, for another Memory
// to be built on (NewMemoryOn).
func (m *Memory) RowStore() *RowStore { return m.rows }

// Mapper returns the physical-to-media mapper.
func (m *Memory) Mapper() addr.Mapper { return m.mapper }

// Module returns the DIMM at (socket, dimm).
func (m *Memory) Module(socket, dimm int) *Module { return m.modules[socket][dimm] }

// moduleFor routes a bank to its module.
func (m *Memory) moduleFor(b geometry.BankID) (*Module, error) {
	if !b.Valid(m.g) {
		return nil, fmt.Errorf("dram: invalid bank %v", b)
	}
	return m.modules[b.Socket][b.DIMM], nil
}

// WritePhys stores bytes at a host physical address, spanning rows and
// banks as the mapping dictates.
func (m *Memory) WritePhys(pa uint64, data []byte) error {
	return m.walk(opWrite, pa, data, len(data))
}

// ReadPhys reads len(buf) bytes at a host physical address.
func (m *Memory) ReadPhys(pa uint64, buf []byte) error {
	return m.walk(opRead, pa, buf, len(buf))
}

// ScrubPhys zeroes n bytes at a host physical address. Untouched rows stay
// unmaterialized, and a scrub that covers a whole stripe hands its rows
// back to the row store, so scrubbing terabytes of never-written guest RAM
// costs almost nothing and a destroyed guest's rows are reused by the next
// one — the sparse analogue of the kernel's free-page sanitization.
func (m *Memory) ScrubPhys(pa uint64, n int) error {
	return m.walk(opScrub, pa, nil, n)
}

// bulkOp is what the stripe walker does to the bytes it visits.
type bulkOp uint8

const (
	opRead bulkOp = iota
	opWrite
	opScrub
)

const lineShift = 6 // log2(geometry.CacheLineSize)

// walk is the one data path under ReadPhys, WritePhys and ScrubPhys (a copy
// between two ranges is CopyPhys). Its unit is the mapper's stripe, not the
// cache line: it decodes once per stripe, checks the stripe against the
// geometry once, and hands the part of [pa, pa+n) that falls inside to
// stripeOp. buf is the caller's data (nil for scrub). A range that runs off
// the end of memory is processed up to the end and then fails with the
// mapper's ErrOutOfRange, as the per-line walk did. walk takes no callback
// and keeps everything it needs in locals, so a call allocates nothing.
//
// Where the census counts no live row in the 2 MiB region a read or scrub has
// reached, the walker, having decoded and checked the stripe there, passes
// over the rest of the region at once: a read clears its buffer, a scrub has
// nothing to zero.
func (m *Memory) walk(op bulkOp, pa uint64, buf []byte, n int) error {
	for done := 0; done < n; {
		cur := pa + uint64(done)
		st, err := m.mapper.Stripe(cur)
		if err != nil {
			return err
		}
		if !m.checkStripe(&st) {
			return m.stripeError(st)
		}
		seg := n - done
		if op != opWrite && !m.census.holds(cur) {
			seg = int(min(uint64(seg), m.census.regionEnd(cur)-cur))
			if buf != nil {
				clear(buf[done : done+seg])
			}
			done += seg
			continue
		}
		if rest := st.Len - st.Off; int64(seg) > rest {
			seg = int(rest)
		}
		var data []byte
		if buf != nil {
			data = buf[done : done+seg]
		}
		m.stripeOp(op, &st, stripeRegions(cur, &st), int(st.Off), seg, data)
		done += seg
	}
	return nil
}

// checkStripe makes, once per stripe, the checks the per-line path made on
// every line: the banks exist on this server (moduleFor, Module.owns), the
// row is inside the bank, and no column runs past the end of a row. The
// test is small enough to inline; the error is built out of line.
func (m *Memory) checkStripe(st *addr.Stripe) bool {
	return uint(st.Socket) < uint(len(m.modules)) &&
		st.Bank0 >= 0 && st.Banks > 0 && st.Bank0+st.Banks <= len(m.bankRefs) &&
		uint(st.Row) < uint(m.g.RowsPerBank) &&
		st.Len == int64(st.Banks)*int64(m.g.RowBytes) && uint64(st.Off) < uint64(st.Len)
}

func (m *Memory) stripeError(st addr.Stripe) error {
	return fmt.Errorf("dram: stripe %+v outside the geometry (%d banks/socket, %d rows/bank, %d-byte rows)",
		st, len(m.bankRefs), m.g.RowsPerBank, m.g.RowBytes)
}

// stripeOp applies op to bytes [off, off+n) of one stripe (n > 0); at is the
// stripe's census regions, where a row it materializes or releases counts.
//
// Locking. The banks the segment touches sit on one socket; stripeOp takes
// the rowsMu of every DIMM among them in ascending DIMM order, does all
// its work, and releases them. It never holds locks of two sockets, never
// takes actMu, and calls nothing that locks — so with commitFlips (actMu,
// then one rowsMu) the order is actMu < rowsMu(dimm 0) < rowsMu(dimm 1) < …
// within a socket and there is no cycle. Every line moves under the lock
// of the module that stores it, so a concurrent reader never sees a torn
// cache line; in fact it sees the whole segment as of one instant.
//
// Sparsity. An absent row reads as zero (rowIndex). A read clears the
// caller's buffer in one sweep when any of the rows is absent and copies
// only from rows that exist; scrub skips absent rows; a scrub of the entire
// stripe releases its rows instead of zeroing them in place, since each of
// them is covered in full. Only a write materializes.
func (m *Memory) stripeOp(op bulkOp, st *addr.Stripe, at regions, off, n int, buf []byte) {
	// Cache line l of the stripe is in bank Bank0 + l%Banks at column
	// (l/Banks)*64. The segment's lines are l0..l1; they touch nb banks,
	// the k-th of which (k = 0..nb-1, starting at bank r0 and wrapping)
	// holds lines l0+k, l0+k+Banks, … at consecutive columns from q*64.
	l0, l1 := off>>lineShift, (off+n-1)>>lineShift
	nb := min(l1-l0+1, st.Banks)
	// A 32-bit divide (NewMemory bounds a stripe's lines): the 64-bit one
	// is a measurable share of a single-line access.
	q0, r0 := int(uint32(l0)/uint32(st.Banks)), int(uint32(l0)%uint32(st.Banks))

	mods := m.modules[st.Socket]
	refs := m.bankRefs[st.Bank0 : st.Bank0+st.Banks]
	first, last := refs[r0].dimm, refs[r0].dimm
	if r0+nb > st.Banks { // wraps: the touched banks include both ends
		first, last = refs[0].dimm, refs[st.Banks-1].dimm
	} else if nb > 1 {
		last = refs[r0+nb-1].dimm
	}
	for d := first; d <= last; d++ {
		mods[d].rowsMu.Lock()
	}

	whole := op == opScrub && off == 0 && int64(n) == st.Len
	if op == opRead && nb > 1 {
		// With any row absent, one sweep of the buffer replaces thousands
		// of 64-byte clears, and the loop below copies only from the rows
		// that exist.
		live := 0
		for k, r := 0, r0; k < nb; k++ {
			if mods[refs[r].dimm].rows.has(int(refs[r].idx), st.Row) {
				live++
			}
			if r++; r == st.Banks {
				r = 0
			}
		}
		if live < nb {
			clear(buf)
		}
	}
	stride := st.Banks << lineShift
	for k, q, r := 0, q0, r0; k < nb; k++ {
		rows, idx := mods[refs[r].dimm].rows, int(refs[r].idx)
		var row []byte
		switch {
		case op == opWrite:
			row = rows.rowAlloc(idx, st.Row, at)
		case whole:
			rows.release(idx, st.Row, at)
		default:
			row = rows.row(idx, st.Row)
			if row == nil && nb == 1 {
				clear(buf) // a lone bank is not worth a presence count; buf is nil unless reading
			}
		}
		// b is where the bank's first line starts in the segment; it is
		// negative only for k == 0 of a segment that starts mid-line.
		for b, col := (l0+k)<<lineShift-off, q<<lineShift; row != nil && b < n; b, col = b+stride, col+geometry.CacheLineSize {
			lo, hi, c := b, b+geometry.CacheLineSize, col
			if lo < 0 {
				c -= lo
				lo = 0
			}
			if hi > n {
				hi = n
			}
			switch op {
			case opRead:
				copy(buf[lo:hi], row[c:])
			case opWrite:
				copy(row[c:], buf[lo:hi])
			case opScrub:
				clear(row[c : c+hi-lo])
			}
		}
		if r++; r == st.Banks {
			r, q = 0, q+1
		}
	}

	for d := first; d <= last; d++ {
		mods[d].rowsMu.Unlock()
	}
}

// RowStride returns how far apart, in the physical address space, the cache
// lines of the bank row holding pa sit: the mapper interleaves consecutive
// lines over the banks of pa's stripe, so one bank's lines recur every
// Banks lines — and are consecutive columns of the row the bank stores.
func (m *Memory) RowStride(pa uint64) (uint64, error) {
	st, err := m.stripeAt(pa)
	return uint64(st.Banks) << lineShift, err
}

// WriteRowPhys stores data into the one bank row that holds pa, from pa's
// cache line on: line j of data is the line at pa + j*RowStride(pa). pa must
// be line-aligned and data must end inside the row.
func (m *Memory) WriteRowPhys(pa uint64, data []byte) error {
	_, err := m.rowOp(true, pa, data)
	return err
}

// ReadRowPhys is the load WriteRowPhys is the store of: it fills buf from the
// bank row that holds pa, from pa's cache line on, and returns RowStride(pa),
// which tells the caller where each line of buf lives.
func (m *Memory) ReadRowPhys(pa uint64, buf []byte) (stride uint64, err error) {
	return m.rowOp(false, pa, buf)
}

// rowOp is the strided sibling of walk: where walk moves a contiguous range
// through every bank of a stripe, rowOp moves one bank's share of it — lines
// a stride apart in the address space, which the row store holds as one
// contiguous run of columns — with one decode, the walker's once-per-stripe
// checks, and one copy under the rowsMu of the module that stores the row
// (stripeOp's rule with a single bank: nothing is taken under it). An absent
// row reads as zero and only a write materializes it.
func (m *Memory) rowOp(write bool, pa uint64, buf []byte) (stride uint64, err error) {
	st, err := m.stripeAt(pa)
	if err != nil {
		return 0, err
	}
	if st.Off&(geometry.CacheLineSize-1) != 0 {
		return 0, fmt.Errorf("dram: row access at %#x is not cache-line aligned", pa)
	}
	l := uint32(st.Off >> lineShift) // NewMemory bounds a stripe's lines
	col := int(l/uint32(st.Banks)) << lineShift
	if col+len(buf) > m.g.RowBytes {
		return 0, fmt.Errorf("dram: row access at %#x: columns [%d,%d) run past the %d-byte row", pa, col, col+len(buf), m.g.RowBytes)
	}
	ref := m.bankRefs[st.Bank0+int(l%uint32(st.Banks))]
	mod := m.modules[st.Socket][ref.dimm]
	mod.rowsMu.Lock()
	if write {
		copy(mod.rows.rowAlloc(int(ref.idx), st.Row, stripeRegions(pa, &st))[col:], buf)
	} else if row := mod.rows.row(int(ref.idx), st.Row); row != nil {
		copy(buf, row[col:])
	} else {
		clear(buf)
	}
	mod.rowsMu.Unlock()
	return uint64(st.Banks) << lineShift, nil
}

// AllZero reports whether every byte of b is zero, scanning a word at a
// time: the copy's source-row test and the scrubbed-buffer probe of the
// lifecycle campaigns and experiments.
func AllZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// ActivatePhys issues count activations of the row backing a physical
// address, each holding the row open openNs nanoseconds. It is the
// primitive hammering and the memory-controller model build on.
func (m *Memory) ActivatePhys(pa uint64, count int, openNs int64) error {
	ma, err := m.mapper.Decode(pa)
	if err != nil {
		return err
	}
	mod, err := m.moduleFor(ma.Bank)
	if err != nil {
		return err
	}
	return mod.ActivateRow(ma.Bank, ma.Row, count, openNs)
}

// AttachDefense attaches one mitigation instance per module, built by
// build(socket, dimm, banks). Each module gets its own instance — defense
// state is per-scope, mirroring per-DIMM hardware — so build must derive
// any RNG seed from (socket, dimm) (see mitigation.ScopeSeed). A nil
// return from build leaves that module undefended.
func (m *Memory) AttachDefense(build func(socket, dimm, banks int) mitigation.Mitigation) {
	for s, socket := range m.modules {
		for d, mod := range socket {
			mod.AttachDefense(build(s, d, m.g.BanksPerDIMM()))
		}
	}
}

// DefenseOverhead sums attached-defense overhead across all modules.
func (m *Memory) DefenseOverhead() mitigation.Overhead {
	var o mitigation.Overhead
	for _, socket := range m.modules {
		for _, mod := range socket {
			o.Add(mod.DefenseOverhead())
		}
	}
	return o
}

// DefenseHealth reports the first degraded defense across modules.
func (m *Memory) DefenseHealth() error {
	for _, socket := range m.modules {
		for _, mod := range socket {
			if err := mod.DefenseHealth(); err != nil {
				return err
			}
		}
	}
	return nil
}

// TotalActivations sums observed activations across all modules.
func (m *Memory) TotalActivations() int64 {
	var n int64
	for _, socket := range m.modules {
		for _, mod := range socket {
			n += mod.TotalActivations()
		}
	}
	return n
}

// LiveRows counts the rows currently materialized across all modules — the
// row store's footprint, which the sparse bulk paths keep proportional to
// the data held.
func (m *Memory) LiveRows() int {
	var n int
	for _, socket := range m.modules {
		for _, mod := range socket {
			mod.rowsMu.Lock()
			n += mod.rows.live
			mod.rowsMu.Unlock()
		}
	}
	return n
}

// Refresh ends the current refresh window on every module.
func (m *Memory) Refresh() {
	for _, socket := range m.modules {
		for _, mod := range socket {
			mod.Refresh()
		}
	}
}

// Window returns the refresh-window index (all modules refresh together).
func (m *Memory) Window() int { return m.modules[0][0].Window() }

// Flips aggregates all flips across modules.
func (m *Memory) Flips() []Flip {
	var out []Flip
	for _, socket := range m.modules {
		for _, mod := range socket {
			out = append(out, mod.Flips()...)
		}
	}
	return out
}

// ResetFlips clears every module's flip log.
func (m *Memory) ResetFlips() {
	for _, socket := range m.modules {
		for _, mod := range socket {
			mod.ResetFlips()
		}
	}
}

// FlipPhys translates a flip back to the host physical address of the
// corrupted byte, letting callers attribute corruption to software-visible
// locations.
func (m *Memory) FlipPhys(f Flip) (uint64, error) {
	return m.mapper.Encode(geometry.MediaAddr{
		Bank: f.Bank,
		Row:  f.MediaRow,
		Col:  f.ByteOffset(m.g),
	})
}

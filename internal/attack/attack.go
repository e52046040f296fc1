// Package attack implements a Blacksmith-style Rowhammer fuzzer (§7): it
// synthesizes non-uniform, frequency-domain hammering patterns — aggressor
// pairs plus high-amplitude decoy rows at different amplitudes and phases —
// that defeat sampling-based in-DRAM TRR, drives them against a target's
// hammerable rows, and scans the target's memory for bit flips.
//
// Two target views are provided: a VM-confined target (the attacker tenant
// of §7.1, who can only touch its own guest RAM) and a raw physical-range
// target (for host-level experiments such as pinning the fuzzer to one
// subarray group).
package attack

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/geometry"
)

// RowRef is one hammerable row from the attacker's perspective: an address
// it can access plus the reverse-engineered bank/row location (Blacksmith
// assumes knowledge of DRAM addressing, as do we).
type RowRef struct {
	// Addr is the attacker-visible address (GPA for a VM target, PA for
	// a physical target) of the row's first line in the target bank.
	Addr uint64
	// Bank and Row locate the row in DRAM.
	Bank geometry.BankID
	Row  int
}

// Corruption is one attacker-observed flipped byte.
type Corruption struct {
	// Addr is the attacker-visible address of the corrupted byte.
	Addr uint64
	// Got is the value read back (the fill pattern was expected).
	Got byte
}

// Target abstracts what the attacker can reach.
type Target interface {
	// Rows enumerates hammerable rows in the target bank, sorted by Row.
	Rows() []RowRef
	// Hammer activates a row count times with the given open time.
	Hammer(r RowRef, count int, openNs int64) error
	// FillRow writes the byte pattern over one row's data.
	FillRow(r RowRef, pat byte) error
	// CheckRow reads one row back and returns corruptions.
	CheckRow(r RowRef, pat byte) ([]Corruption, error)
	// EndWindow closes the refresh window (time passing).
	EndWindow()
}

// rowChunk is the stack buffer a row moves through; every geometry in use
// has rows of at most 8 KiB.
const rowChunk = 8 * geometry.KiB

// rowBuf returns n bytes to hold a row in: the caller's stack chunk, or for a
// row longer than it a buffer of the row's own.
func rowBuf(chunk *[rowChunk]byte, n int) []byte {
	if n <= len(chunk) {
		return chunk[:n]
	}
	return make([]byte, n)
}

// patternRow returns an n-byte row of pat.
func patternRow(chunk *[rowChunk]byte, n int, pat byte) []byte {
	row := rowBuf(chunk, n)
	row[0] = pat
	for filled := 1; filled < n; filled *= 2 {
		copy(row[filled:], row[:filled])
	}
	return row
}

// mismatches returns every byte of a row read back that is not pat, in
// address order, or nil for a clean row. The row's first line is at addr and
// its lines are stride apart (the mapping interleaves consecutive lines over
// banks). It compares a word at a time — a row is a multiple of the 64-byte
// line — and looks at bytes only inside a word that differs: a first pass
// counts them, so a dirty row's list is made once at its length.
func mismatches(row []byte, pat byte, addr, stride uint64) []Corruption {
	want := uint64(pat) * 0x0101010101010101
	n := 0
	for w := 0; w < len(row); w += 8 {
		if binary.LittleEndian.Uint64(row[w:]) != want {
			for _, b := range row[w : w+8] {
				if b != pat {
					n++
				}
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Corruption, 0, n)
	for w := 0; len(out) < n; w += 8 {
		if binary.LittleEndian.Uint64(row[w:]) == want {
			continue
		}
		for i := w; i < w+8; i++ {
			if row[i] != pat {
				line, off := uint64(i/geometry.CacheLineSize), uint64(i%geometry.CacheLineSize)
				out = append(out, Corruption{Addr: addr + line*stride + off, Got: row[i]})
			}
		}
	}
	return out
}

// runs splits sorted rows into maximal runs of consecutive row numbers in
// the same bank; patterns are built within a run. Each run is a capped
// subslice of rows, so it shares rows' backing and an append to it copies.
func runs(rows []RowRef) [][]RowRef {
	n := 0
	for i := range rows {
		if runStarts(rows, i) {
			n++
		}
	}
	out := make([][]RowRef, 0, n)
	for start, i := 0, 1; i <= len(rows); i++ {
		if i == len(rows) || runStarts(rows, i) {
			out = append(out, rows[start:i:i])
			start = i
		}
	}
	return out
}

// runStarts reports whether rows[i] begins a run: it is the first row, or
// not the row after rows[i-1] in the same bank.
func runStarts(rows []RowRef, i int) bool {
	return i == 0 || rows[i].Bank != rows[i-1].Bank || rows[i].Row != rows[i-1].Row+1
}

// VMTarget confines the attacker to one VM's guest RAM (§7.1's inter-VM
// attacker).
type VMTarget struct {
	VM *core.VM
	// BankIndex selects which within-socket bank to attack (default 0).
	BankIndex int

	rows []RowRef
}

// Rows implements Target: it walks the VM's RAM pages and collects the rows
// of the chosen bank whose data the VM fully controls. Row groups are
// rowGroupBytes-aligned in physical space; a row straddling two guest pages
// counts only when the backing pages are physically contiguous (which
// Siloz's contiguous per-group allocation and the paper's deployment
// environment both provide, §5.4).
func (t *VMTarget) Rows() []RowRef {
	if t.rows != nil {
		return t.rows
	}
	mem := t.VM.Hypervisor().Memory()
	g := mem.Geometry()
	rowGroup := uint64(g.RowGroupBytes())
	pages := t.VM.RAMPages()
	n := 0
	ownedRowBases(pages, rowGroup, func(int, uint64) { n++ })
	rows := make([]RowRef, 0, n)
	ownedRowBases(pages, rowGroup, func(pi int, rb uint64) {
		ma, err := mem.Mapper().Decode(rb)
		if err != nil {
			return
		}
		rows = append(rows, RowRef{
			Addr: uint64(pi)*geometry.PageSize2M + (rb - pages[pi]) + uint64(t.BankIndex)*geometry.CacheLineSize,
			Bank: geometry.BankFromSocketFlat(g, ma.Bank.Socket, t.BankIndex),
			Row:  ma.Row,
		})
	})
	sortRows(g, rows)
	t.rows = rows
	return rows
}

// ownedRowBases calls visit with the page index and physical base of every
// rowGroup-aligned row group inside the 2 MiB pages, in page order. A group
// straddling into the next page counts only when that page is physically
// contiguous with this one.
func ownedRowBases(pages []uint64, rowGroup uint64, visit func(pi int, rb uint64)) {
	for pi, hpa := range pages {
		end := hpa + geometry.PageSize2M
		for rb := (hpa + rowGroup - 1) / rowGroup * rowGroup; rb < end; rb += rowGroup {
			if rb+rowGroup > end && (pi+1 >= len(pages) || pages[pi+1] != end) {
				continue
			}
			visit(pi, rb)
		}
	}
}

// sortRows orders refs by bank then row.
func sortRows(g geometry.Geometry, rows []RowRef) {
	slices.SortFunc(rows, func(a, b RowRef) int {
		if a.Bank != b.Bank {
			return cmp.Compare(a.Bank.Flat(g), b.Bank.Flat(g))
		}
		return cmp.Compare(a.Row, b.Row)
	})
}

// Hammer implements Target.
func (t *VMTarget) Hammer(r RowRef, count int, openNs int64) error {
	return t.VM.Hammer(r.Addr, count, openNs)
}

// FillRow implements Target.
func (t *VMTarget) FillRow(r RowRef, pat byte) error {
	var chunk [rowChunk]byte
	return t.VM.WriteGuestRow(r.Addr, patternRow(&chunk, t.VM.Hypervisor().Memory().Geometry().RowBytes, pat))
}

// CheckRow implements Target.
func (t *VMTarget) CheckRow(r RowRef, pat byte) ([]Corruption, error) {
	var chunk [rowChunk]byte
	row := rowBuf(&chunk, t.VM.Hypervisor().Memory().Geometry().RowBytes)
	stride, err := t.VM.ReadGuestRow(r.Addr, row)
	if err != nil {
		return nil, err
	}
	return mismatches(row, pat, r.Addr, stride), nil
}

// EndWindow implements Target.
func (t *VMTarget) EndWindow() { t.VM.Hypervisor().Memory().Refresh() }

// PhysTarget exposes a raw physical range (host-level fuzzing, e.g. pinned
// to one subarray group as in §7.1's containment run).
type PhysTarget struct {
	Mem *dram.Memory
	// Ranges are the physical ranges the fuzzer may touch.
	Ranges []PhysRange
	// BankIndex selects the within-socket bank to attack.
	BankIndex int

	rows []RowRef
}

// PhysRange is a half-open physical range.
type PhysRange struct{ Start, End uint64 }

// Rows implements Target.
func (t *PhysTarget) Rows() []RowRef {
	if t.rows != nil {
		return t.rows
	}
	g := t.Mem.Geometry()
	rowGroup := uint64(g.RowGroupBytes())
	n := 0
	rangeRowBases(t.Ranges, rowGroup, func(uint64) { n++ })
	rows := make([]RowRef, 0, n)
	rangeRowBases(t.Ranges, rowGroup, func(rb uint64) {
		ma, err := t.Mem.Mapper().Decode(rb)
		if err != nil {
			return
		}
		rows = append(rows, RowRef{
			Addr: rb + uint64(t.BankIndex)*geometry.CacheLineSize,
			Bank: geometry.BankFromSocketFlat(g, ma.Bank.Socket, t.BankIndex),
			Row:  ma.Row,
		})
	})
	sortRows(g, rows)
	t.rows = rows
	return rows
}

// rangeRowBases calls visit with the physical base of every rowGroup-aligned
// row group that lies wholly inside one of the ranges, in range order.
func rangeRowBases(ranges []PhysRange, rowGroup uint64, visit func(rb uint64)) {
	for _, r := range ranges {
		for rb := (r.Start + rowGroup - 1) / rowGroup * rowGroup; rb+rowGroup <= r.End; rb += rowGroup {
			visit(rb)
		}
	}
}

// Hammer implements Target.
func (t *PhysTarget) Hammer(r RowRef, count int, openNs int64) error {
	return t.Mem.ActivatePhys(r.Addr, count, openNs)
}

// FillRow implements Target.
func (t *PhysTarget) FillRow(r RowRef, pat byte) error {
	var chunk [rowChunk]byte
	return t.Mem.WriteRowPhys(r.Addr, patternRow(&chunk, t.Mem.Geometry().RowBytes, pat))
}

// CheckRow implements Target.
func (t *PhysTarget) CheckRow(r RowRef, pat byte) ([]Corruption, error) {
	var chunk [rowChunk]byte
	row := rowBuf(&chunk, t.Mem.Geometry().RowBytes)
	stride, err := t.Mem.ReadRowPhys(r.Addr, row)
	if err != nil {
		return nil, err
	}
	return mismatches(row, pat, r.Addr, stride), nil
}

// EndWindow implements Target.
func (t *PhysTarget) EndWindow() { t.Mem.Refresh() }

// ensure interface conformance.
var (
	_ Target = (*VMTarget)(nil)
	_ Target = (*PhysTarget)(nil)
)

// rngFrom builds a deterministic RNG.
func rngFrom(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

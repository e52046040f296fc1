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
	"encoding/binary"
	"math/rand"
	"sort"

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
// address order. The row's first line is at addr and its lines are stride
// apart (the mapping interleaves consecutive lines over banks). It compares a
// word at a time — a row is a multiple of the 64-byte line — and looks at
// bytes only inside a word that differs.
func mismatches(row []byte, pat byte, addr, stride uint64) []Corruption {
	var out []Corruption
	want := uint64(pat) * 0x0101010101010101
	for w := 0; w < len(row); w += 8 {
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
	var out [][]RowRef
	start := 0
	for i := 1; i <= len(rows); i++ {
		if i == len(rows) || rows[i].Bank != rows[i-1].Bank || rows[i].Row != rows[i-1].Row+1 {
			out = append(out, rows[start:i:i])
			start = i
		}
	}
	return out
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
	var rows []RowRef
	for pi, hpa := range pages {
		gpaBase := uint64(pi) * geometry.PageSize2M
		first := (hpa + rowGroup - 1) / rowGroup * rowGroup
		for rb := first; rb < hpa+geometry.PageSize2M; rb += rowGroup {
			if rb+rowGroup > hpa+geometry.PageSize2M {
				// Straddles into the next page: usable only with
				// physical contiguity.
				if pi+1 >= len(pages) || pages[pi+1] != hpa+geometry.PageSize2M {
					continue
				}
			}
			ma, err := mem.Mapper().Decode(rb)
			if err != nil {
				continue
			}
			bank := geometry.BankFromSocketFlat(g, ma.Bank.Socket, t.BankIndex)
			rows = append(rows, RowRef{
				Addr: gpaBase + (rb - hpa) + uint64(t.BankIndex)*geometry.CacheLineSize,
				Bank: bank,
				Row:  ma.Row,
			})
		}
	}
	sortRows(g, rows)
	t.rows = rows
	return rows
}

// sortRows orders refs by bank then row.
func sortRows(g geometry.Geometry, rows []RowRef) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Bank != rows[j].Bank {
			return rows[i].Bank.Flat(g) < rows[j].Bank.Flat(g)
		}
		return rows[i].Row < rows[j].Row
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
	var rows []RowRef
	for _, r := range t.Ranges {
		first := (r.Start + rowGroup - 1) / rowGroup * rowGroup
		for rb := first; rb+rowGroup <= r.End; rb += rowGroup {
			ma, err := t.Mem.Mapper().Decode(rb)
			if err != nil {
				continue
			}
			bank := geometry.BankFromSocketFlat(g, ma.Bank.Socket, t.BankIndex)
			rows = append(rows, RowRef{
				Addr: rb + uint64(t.BankIndex)*geometry.CacheLineSize,
				Bank: bank,
				Row:  ma.Row,
			})
		}
	}
	sortRows(g, rows)
	t.rows = rows
	return rows
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

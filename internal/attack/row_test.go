package attack

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
)

// rowCase is one geometry the row-granular FillRow/CheckRow are held to the
// per-line bodies on.
type rowCase struct {
	name string
	g    geometry.Geometry
}

func rowCases() []rowCase {
	long := testGeometry()
	long.RowBytes = 16 * geometry.KiB
	return []rowCase{
		// The repository benchmark's hammer-contain geometry: 16 banks a
		// socket, a 128 KiB row group, sixteen of them to a 2 MiB page.
		{"benchmark-128KiB", geometry.Geometry{
			Sockets: 2, CoresPerSocket: 8, DIMMsPerSocket: 2, RanksPerDIMM: 2,
			BanksPerRank: 4, RowsPerBank: 4096, RowBytes: 8 * geometry.KiB,
			RowsPerSubarray: 512,
		}},
		// 384 banks a socket: a 3 MiB row group, so every row's lines fall
		// in two guest pages.
		{"straddle-3MiB", geometry.Geometry{
			Sockets: 2, CoresPerSocket: 4, DIMMsPerSocket: 6, RanksPerDIMM: 4,
			BanksPerRank: 16, RowsPerBank: 2048, RowBytes: 8 * geometry.KiB,
			RowsPerSubarray: 512,
		}},
		// A row longer than the stack chunk it usually moves through.
		{"long-row-16KiB", long},
	}
}

// lineStride is where the per-line reference says a row's lines sit, from
// the geometry alone.
func lineStride(g geometry.Geometry) uint64 {
	return uint64(g.BanksPerSocket()) * geometry.CacheLineSize
}

// byteAddr is the attacker-visible address of byte i of row r.
func byteAddr(g geometry.Geometry, r RowRef, i int) uint64 {
	return r.Addr + uint64(i/geometry.CacheLineSize)*lineStride(g) + uint64(i%geometry.CacheLineSize)
}

// plantOffsets are the row bytes a test corrupts before a check: neighbours
// within a word, both ends of a line and of the row, and — where a row
// straddles pages — bytes of either page.
func plantOffsets(g geometry.Geometry) []int {
	n := g.RowBytes
	return []int{0, 1, 7, 8, 63, 64, n/3 + 5, n / 2, n/2 + 9, n - 65, n - 2, n - 1}
}

func bootRowVM(t testing.TB, g geometry.Geometry, pages int) *core.VM {
	t.Helper()
	h, err := core.Boot(core.Config{
		Geometry:      g,
		Profiles:      []dram.Profile{dram.ProfileA()},
		EPTProtection: ept.GuardRows,
	}, core.ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(core.Process{KVMPrivileged: true},
		core.VMSpec{Name: "attacker", Socket: 0, MemoryBytes: uint64(pages) * geometry.PageSize2M})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

// straddles reports whether the row's lines fall in more than one 2 MiB page.
func straddles(g geometry.Geometry, r RowRef) bool {
	return r.Addr/geometry.PageSize2M != byteAddr(g, r, g.RowBytes-1)/geometry.PageSize2M
}

// sampleRows picks the first, a middle and the last row, plus the first one
// that straddles pages if those do not.
func sampleRows(g geometry.Geometry, rows []RowRef) []RowRef {
	out := []RowRef{rows[0], rows[len(rows)/2], rows[len(rows)-1]}
	if !slices.ContainsFunc(out, func(r RowRef) bool { return straddles(g, r) }) {
		if i := slices.IndexFunc(rows, func(r RowRef) bool { return straddles(g, r) }); i >= 0 {
			out = append(out, rows[i])
		}
	}
	return out
}

// sameGuestState compares what the two paths left behind: the bytes of the
// row group around r and the row store's footprint.
func sameGuestState(got, ref *core.VM, r RowRef, bankIndex int) error {
	g := got.Hypervisor().Memory().Geometry()
	base := r.Addr - uint64(bankIndex)*geometry.CacheLineSize
	a, b := make([]byte, g.RowGroupBytes()), make([]byte, g.RowGroupBytes())
	if err := got.ReadGuest(base, a); err != nil {
		return err
	}
	if err := ref.ReadGuest(base, b); err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("row group at gpa %#x differs from the per-line path's", base)
	}
	if l, rl := got.Hypervisor().Memory().LiveRows(), ref.Hypervisor().Memory().LiveRows(); l != rl {
		return fmt.Errorf("%d live rows, the per-line path leaves %d", l, rl)
	}
	return nil
}

// TestRowPathMatchesPerLine: for a VM target, filling and checking a row at
// row granularity leaves the same bytes in DRAM, the same live rows, the same
// dirty log (armed or not), and reports the same
// corruptions in the same order as the per-line bodies did.
func TestRowPathMatchesPerLine(t *testing.T) {
	for _, tc := range rowCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			got, ref := bootRowVM(t, g, 32), bootRowVM(t, g, 32)
			for _, bankIndex := range []int{0, g.BanksPerSocket() - 1} {
				tg := &VMTarget{VM: got, BankIndex: bankIndex}
				rows := tg.Rows()
				if other := (&VMTarget{VM: ref, BankIndex: bankIndex}).Rows(); !slices.Equal(rows, other) {
					t.Fatal("the two hosts laid the guest out differently")
				}
				if tc.name == "straddle-3MiB" && !straddles(g, rows[0]) {
					t.Fatal("no row straddles two pages on this geometry")
				}
				for _, tracking := range []bool{false, true} {
					if tracking {
						for _, vm := range []*core.VM{got, ref} {
							if err := vm.StartDirtyTracking(); err != nil {
								t.Fatal(err)
							}
						}
					}
					for i, r := range sampleRows(g, rows) {
						pat := []byte{0xA5, 0x00, 0xFF}[i%3]
						if err := tg.FillRow(r, pat); err != nil {
							t.Fatal(err)
						}
						if err := refFillRowVM(ref, r, pat); err != nil {
							t.Fatal(err)
						}
						if err := sameGuestState(got, ref, r, bankIndex); err != nil {
							t.Fatalf("after FillRow(%#x, %#x) tracking=%v: %v", r.Addr, pat, tracking, err)
						}
						if tracking {
							// Before anything else stores to the row's pages.
							d, err := got.TakeDirty()
							if err != nil {
								t.Fatal(err)
							}
							rd, err := ref.TakeDirty()
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(d, rd) || len(d) == 0 {
								t.Fatalf("FillRow(%#x) logged %#x dirty, the per-line path logs %#x", r.Addr, d, rd)
							}
						}
						for _, off := range plantOffsets(g) {
							for _, vm := range []*core.VM{got, ref} {
								if err := vm.WriteGuest(byteAddr(g, r, off), []byte{pat + 1 + byte(off%7)}); err != nil {
									t.Fatal(err)
								}
							}
						}
						cs, err := tg.CheckRow(r, pat)
						if err != nil {
							t.Fatal(err)
						}
						rcs, err := refCheckRowVM(ref, r, pat)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(cs, rcs) || len(cs) == 0 {
							t.Fatalf("CheckRow(%#x) = %v, the per-line path reports %v", r.Addr, cs, rcs)
						}
						if err := sameGuestState(got, ref, r, bankIndex); err != nil {
							t.Fatalf("after CheckRow(%#x): %v", r.Addr, err)
						}
					}
					if tracking {
						for _, vm := range []*core.VM{got, ref} {
							if err := vm.StopDirtyTracking(); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		})
	}
}

// TestPhysRowPathMatchesPerLine is the same for a physical target: the same
// bytes, the same live rows, the same corruptions in the same order.
func TestPhysRowPathMatchesPerLine(t *testing.T) {
	for _, tc := range rowCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			build := func() *dram.Memory {
				mapper, err := addr.NewSkylakeMapper(g)
				if err != nil {
					t.Fatal(err)
				}
				mem, err := dram.NewMemory(g, mapper, []dram.Profile{dram.ProfileA()}, nil)
				if err != nil {
					t.Fatal(err)
				}
				return mem
			}
			got, ref := build(), build()
			for _, bankIndex := range []int{0, g.BanksPerSocket() - 1} {
				tg := &PhysTarget{Mem: got, Ranges: []PhysRange{{Start: 0, End: 64 * geometry.MiB}}, BankIndex: bankIndex}
				for i, r := range sampleRows(g, tg.Rows()) {
					pat := []byte{0xA5, 0x00, 0xFF}[i%3]
					if err := tg.FillRow(r, pat); err != nil {
						t.Fatal(err)
					}
					if err := refFillRowPhys(ref, r, pat); err != nil {
						t.Fatal(err)
					}
					for _, off := range plantOffsets(g) {
						for _, mem := range []*dram.Memory{got, ref} {
							if err := mem.WritePhys(byteAddr(g, r, off), []byte{pat + 1 + byte(off%7)}); err != nil {
								t.Fatal(err)
							}
						}
					}
					cs, err := tg.CheckRow(r, pat)
					if err != nil {
						t.Fatal(err)
					}
					rcs, err := refCheckRowPhys(ref, r, pat)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(cs, rcs) || len(cs) == 0 {
						t.Fatalf("CheckRow(%#x) = %v, the per-line path reports %v", r.Addr, cs, rcs)
					}
					base := r.Addr - uint64(bankIndex)*geometry.CacheLineSize
					a, b := make([]byte, g.RowGroupBytes()), make([]byte, g.RowGroupBytes())
					if err := got.ReadPhys(base, a); err != nil {
						t.Fatal(err)
					}
					if err := ref.ReadPhys(base, b); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a, b) {
						t.Fatalf("row group at %#x differs from the per-line path's", base)
					}
					if l, rl := got.LiveRows(), ref.LiveRows(); l != rl {
						t.Fatalf("%d live rows, the per-line path leaves %d", l, rl)
					}
				}
			}
		})
	}
}

// TestRowPathErrors: what the row accessors refuse. A fill or check is one
// bank row of guest RAM (or of physical memory) starting at a line boundary
// at the row's first column.
func TestRowPathErrors(t *testing.T) {
	g := rowCases()[1].g // 3 MiB row groups
	// A guest whose last page holds the start of a row group: the rest of
	// that group, and of each of its rows, lies past the end of guest RAM.
	var vm *core.VM
	var cut RowRef
	for pages := 32; pages < 35 && vm == nil; pages++ {
		cand := bootRowVM(t, g, pages)
		hpas := cand.RAMPages()
		last := hpas[len(hpas)-1]
		rowGroup := uint64(g.RowGroupBytes())
		if rb := (last + rowGroup - 1) / rowGroup * rowGroup; rb < last+geometry.PageSize2M {
			vm, cut = cand, RowRef{Addr: uint64(pages-1)*geometry.PageSize2M + rb - last}
		}
	}
	if vm == nil {
		t.Fatal("no guest size puts a row group across the end of RAM")
	}
	vt := &VMTarget{VM: vm}
	first := vt.Rows()[0]
	mem := vm.Hypervisor().Memory()
	pt := &PhysTarget{Mem: mem, Ranges: []PhysRange{{Start: 0, End: 64 * geometry.MiB}}}
	for _, tc := range []struct {
		name   string
		target Target
		row    RowRef
	}{
		{"vm/ROM window", vt, RowRef{Addr: core.ROMBase}},
		{"vm/mediated window", vt, RowRef{Addr: core.MediatedBase}},
		{"vm/unaligned", vt, RowRef{Addr: first.Addr + 8}},
		{"vm/past the row end", vt, RowRef{Addr: first.Addr + lineStride(g)}},
		{"vm/unmapped second page", vt, cut},
		{"phys/unaligned", pt, RowRef{Addr: pt.Rows()[0].Addr + 8}},
		{"phys/past the row end", pt, RowRef{Addr: pt.Rows()[0].Addr + lineStride(g)}},
		{"phys/out of range", pt, RowRef{Addr: uint64(g.TotalBytes())}},
	} {
		if err := tc.target.FillRow(tc.row, 0xA5); err == nil {
			t.Errorf("%s: FillRow succeeded", tc.name)
		}
		if cs, err := tc.target.CheckRow(tc.row, 0xA5); err == nil {
			t.Errorf("%s: CheckRow succeeded with %d corruptions", tc.name, len(cs))
		}
	}
	// The refused calls left the valid rows usable.
	if err := vt.FillRow(first, 0x3C); err != nil {
		t.Fatal(err)
	}
	if cs, err := vt.CheckRow(first, 0x3C); err != nil || len(cs) != 0 {
		t.Fatalf("CheckRow after the refused calls: %v, %v", cs, err)
	}
}

// TestAttackPlaneAllocatesNothing: a Hammer call, a FillRow and a CheckRow
// that finds nothing run without allocating, on the benchmark's geometry.
func TestAttackPlaneAllocatesNothing(t *testing.T) {
	vt := &VMTarget{VM: bootRowVM(t, rowCases()[0].g, 32)}
	r := vt.Rows()[40]
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"FillRow", func() error { return vt.FillRow(r, 0xA5) }},
		{"CheckRow", func() error {
			cs, err := vt.CheckRow(r, 0xA5)
			if len(cs) != 0 {
				return fmt.Errorf("%d corruptions in a freshly filled row", len(cs))
			}
			return err
		}},
		{"Hammer", func() error { return vt.Hammer(r, 1, 0) }},
	} {
		var err error
		allocs := testing.AllocsPerRun(50, func() {
			if e := tc.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s allocates %v times a call", tc.name, allocs)
		}
	}
}

package ept

// The per-entry mutators the span edit and the page-granular Relocate
// replaced, kept verbatim as the oracle: refMapLeaf, refUnmap, refProtect,
// refRelocate and refZeroPage move tables eight bytes at a time through
// readEntry/writeEntry, each with its own root-to-leaf loop.
// FuzzTableEditsMatchPerEntry drives both over the same operation sequence and
// compares everything DRAM and the MAC table hold after every step.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/geometry"
)

func (t *Tables) refZeroPage(pa uint64) error {
	t.entryMu.Lock()
	defer t.entryMu.Unlock()
	if err := t.mem.WritePhys(pa, make([]byte, tableBytes)); err != nil {
		return err
	}
	if t.mode == SecureEPT {
		for off := uint64(0); off < tableBytes; off += entrySize {
			t.macs[pa+off] = mac(pa+off, 0)
		}
	}
	return nil
}

func (t *Tables) refMapLeaf(gpa, hpa uint64, leafLevel int, writable, remap bool) error {
	table := t.root.Load()
	for level := 0; level < leafLevel; level++ {
		entryPA := table + indexAt(gpa, level)*entrySize
		v, err := t.readEntry(entryPA)
		if err != nil {
			return err
		}
		if v&entryPresent == 0 {
			if remap {
				return fmt.Errorf("%w: gpa %#x (remap target, level %d)", ErrNotMapped, gpa, level)
			}
			next, err := t.pages.AllocTablePage()
			if err != nil {
				return fmt.Errorf("ept: allocating level-%d table: %w", level+1, err)
			}
			t.all = append(t.all, next)
			if err := t.refZeroPage(next); err != nil {
				return err
			}
			v = (next & frameMask) | entryPresent | entryWrite
			if err := t.writeEntry(entryPA, v); err != nil {
				return err
			}
		} else if v&entryLeaf != 0 {
			return fmt.Errorf("%w: gpa %#x covered by a larger page", ErrAlreadyMapped, gpa)
		}
		table = v & frameMask
	}
	entryPA := table + indexAt(gpa, leafLevel)*entrySize
	cur, err := t.readEntry(entryPA)
	if err != nil {
		return err
	}
	if remap {
		if cur&entryPresent == 0 {
			return fmt.Errorf("%w: gpa %#x (remap target)", ErrNotMapped, gpa)
		}
		if leafLevel < numLevels-1 && cur&entryLeaf == 0 {
			return fmt.Errorf("%w: gpa %#x: entry holds a page-table pointer, not a leaf", ErrAlreadyMapped, gpa)
		}
	} else if cur&entryPresent != 0 {
		return fmt.Errorf("%w: gpa %#x", ErrAlreadyMapped, gpa)
	}
	leaf := (hpa & frameMask) | entryPresent
	if writable {
		leaf |= entryWrite
	}
	if leafLevel < numLevels-1 {
		leaf |= entryLeaf
	}
	return t.writeEntry(entryPA, leaf)
}

func (t *Tables) refUnmap(gpa uint64) error {
	table := t.root.Load()
	for level := 0; level < numLevels; level++ {
		entryPA := table + indexAt(gpa, level)*entrySize
		v, err := t.readEntry(entryPA)
		if err != nil {
			return err
		}
		if v&entryPresent == 0 {
			return fmt.Errorf("%w: gpa %#x (level %d)", ErrNotMapped, gpa, level)
		}
		if v&entryLeaf != 0 || level == numLevels-1 {
			return t.writeEntry(entryPA, 0)
		}
		table = v & frameMask
	}
	panic("unreachable")
}

func (t *Tables) refProtect(gpa uint64, writable bool) error {
	table := t.root.Load()
	for level := 0; level < numLevels; level++ {
		entryPA := table + indexAt(gpa, level)*entrySize
		v, err := t.readEntry(entryPA)
		if err != nil {
			return err
		}
		if v&entryPresent == 0 {
			return fmt.Errorf("%w: gpa %#x (level %d)", ErrNotMapped, gpa, level)
		}
		if v&entryLeaf != 0 || level == numLevels-1 {
			nv := v &^ uint64(entryWrite)
			if writable {
				nv |= entryWrite
			}
			if nv == v {
				return nil
			}
			return t.writeEntry(entryPA, nv)
		}
		table = v & frameMask
	}
	panic("unreachable")
}

func (t *Tables) refRelocate(newAlloc PageAllocator) (int, error) {
	if t.destroyed {
		return 0, fmt.Errorf("%w: relocate", ErrDestroyed)
	}
	oldPages, oldAlloc := t.all, t.pages
	var newPages []uint64
	fail := func(err error) (int, error) {
		for _, pa := range newPages {
			t.dropMACs(pa)
			newAlloc.FreeTablePage(pa)
		}
		return 0, err
	}
	var copyTable func(pa uint64, level int) (uint64, error)
	copyTable = func(pa uint64, level int) (uint64, error) {
		np, err := newAlloc.AllocTablePage()
		if err != nil {
			return 0, fmt.Errorf("ept: relocating level-%d table: %w", level, err)
		}
		newPages = append(newPages, np)
		if err := t.refZeroPage(np); err != nil {
			return 0, err
		}
		for off := uint64(0); off < tableBytes; off += entrySize {
			v, err := t.readEntry(pa + off)
			if err != nil {
				return 0, err
			}
			if v == 0 {
				continue
			}
			if v&entryPresent != 0 && v&entryLeaf == 0 && level < numLevels-1 {
				child, err := copyTable(v&frameMask, level+1)
				if err != nil {
					return 0, err
				}
				v = (v &^ uint64(frameMask)) | (child & frameMask)
			}
			if err := t.writeEntry(np+off, v); err != nil {
				return 0, err
			}
		}
		return np, nil
	}
	newRoot, err := copyTable(t.root.Load(), 0)
	if err != nil {
		return fail(err)
	}
	t.all, t.pages = newPages, newAlloc
	t.root.Store(newRoot)
	for _, pa := range oldPages {
		t.dropMACs(pa)
		oldAlloc.FreeTablePage(pa)
	}
	return len(newPages), nil
}

// refOp is one run as the fuzzer decodes it: kind applied to n pages of
// pageBytes from gpa, page i of a map or remap going to hpas[i].
type refOp struct {
	kind      editKind
	gpa       uint64
	n         int
	pageBytes uint64
	hpas      []uint64
	writable  bool
}

// rawLeafEntry finds, reading DRAM directly, the entry a single-entry edit
// of kind at gpa would end its walk on, and its level. known is false when
// that entry's table is still to be allocated (a map) or the walk cannot get
// there.
func (t *Tables) rawLeafEntry(kind editKind, gpa uint64, leafLevel int) (entryPA uint64, level int, known bool) {
	table := t.root.Load()
	for ; ; level++ {
		entryPA = table + indexAt(gpa, level)*entrySize
		if level == leafLevel {
			return entryPA, level, true
		}
		var buf [entrySize]byte
		if t.mem.ReadPhys(entryPA, buf[:]) != nil {
			return 0, 0, false
		}
		v := binary.LittleEndian.Uint64(buf[:])
		if v&entryPresent == 0 || v&entryLeaf != 0 {
			return entryPA, level, kind > editRemap // an unmap or protect acts right here
		}
		table = v & frameMask
	}
}

// refRun is what a run means, spelled with the retired single-entry bodies:
// apply them page by page, and when one fails put back, byte for byte and MAC
// for MAC, the entries already edited in the failing page's span — the pages
// before it whose entries sit side by side in the same table page, each
// covering one page of the run. It returns the pages edited by the spans
// before the failing one.
func (t *Tables) refRun(op refOp) (int, error) {
	leafLevel := numLevels - 1
	if op.kind <= editRemap && op.pageBytes == geometry.PageSize2M {
		leafLevel--
	}
	type saved struct {
		pa     uint64
		raw    [entrySize]byte
		mac    uint64
		hadMAC bool
	}
	var span []saved
	spanStart, prev := 0, uint64(0)
	for i := 0; i < op.n; i++ {
		gpa := op.gpa + uint64(i)*op.pageBytes
		pa, level, known := t.rawLeafEntry(op.kind, gpa, leafLevel)
		if !known || i == 0 || pageBytesAt(level) != op.pageBytes || pa != prev+entrySize || pa/tableBytes != prev/tableBytes {
			span, spanStart = span[:0], i
		}
		s := saved{pa: pa}
		if known {
			_ = t.mem.ReadPhys(pa, s.raw[:])
			s.mac, s.hadMAC = t.macs[pa]
		}
		var err error
		switch op.kind {
		case editMap, editRemap:
			err = t.refMapLeaf(gpa, op.hpas[i], leafLevel, op.writable, op.kind == editRemap)
		case editUnmap:
			err = t.refUnmap(gpa)
		case editProtect:
			err = t.refProtect(gpa, op.writable)
		}
		if err != nil {
			for _, s := range span {
				_ = t.mem.WritePhys(s.pa, s.raw[:])
				if s.hadMAC {
					t.macs[s.pa] = s.mac
				} else {
					delete(t.macs, s.pa)
				}
			}
			return spanStart, err
		}
		if !known { // the map allocated the table: the entry was a fresh zero
			s.pa, _, _ = t.rawLeafEntry(op.kind, gpa, leafLevel)
			s.mac, s.hadMAC = mac(s.pa, 0), t.mode == SecureEPT
		}
		span, prev = append(span, s), s.pa
	}
	return op.n, nil
}

// poolAlloc hands out the lowest free page of a small pool, so its state
// after any sequence depends only on which pages are out — a failed Relocate
// may draw and return a different number of pages on the two sides.
type poolAlloc struct {
	base uint64
	used []bool
}

func (p *poolAlloc) AllocTablePage() (uint64, error) {
	i := slices.Index(p.used, false)
	if i < 0 {
		return 0, errors.New("poolAlloc: out of pages")
	}
	p.used[i] = true
	return p.base + uint64(i)*tableBytes, nil
}

func (p *poolAlloc) FreeTablePage(pa uint64) { p.used[(pa-p.base)/tableBytes] = false }

// side is one implementation's world: its own DRAM, pools and hierarchy.
type side struct {
	mem    *dram.Memory
	pools  [2]*poolAlloc
	tables *Tables
}

func newSide(t testing.TB, mode IntegrityMode) *side {
	t.Helper()
	g := tinyGeometry()
	mapper, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	s := new(side)
	if s.mem, err = dram.NewMemory(g, mapper, []dram.Profile{testProfile()}, nil); err != nil {
		t.Fatal(err)
	}
	for i := range s.pools {
		s.pools[i] = &poolAlloc{base: uint64(32+16*i) << 20, used: make([]bool, 13)}
	}
	if s.tables, err = New(s.mem, s.pools[0], mode); err != nil {
		t.Fatal(err)
	}
	return s
}

var sentinels = []error{ErrNotMapped, ErrIntegrity, ErrPermission, ErrAlreadyMapped, ErrDestroyed}

func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for _, s := range sentinels {
		if errors.Is(a, s) != errors.Is(b, s) {
			return false
		}
	}
	return true
}

// The fuzzer's guest addresses: 2 MiB slots either side of a page-directory
// boundary, and 4 KiB pages either side of a page-table boundary in a few of
// them, so runs straddle last-level tables of both sizes and the two leaf
// sizes collide.
const (
	fuzzSlot0 = 508 // first 2 MiB slot; slot 512 starts the next page directory
	fuzzSlots = 20
	fuzzPage0 = 504 // first 4 KiB page of a slot; page 512 is the next slot's first
)

var fuzzSlots4K = []uint64{508, 511, 512}

func gpa4K(slot, page uint64) uint64 {
	return slot*geometry.PageSize2M + page*geometry.PageSize4K
}

// diff compares everything the two sides hold; "" means identical.
func diff(got, want *side) string {
	gp, wp := got.tables.Pages(), want.tables.Pages()
	if !slices.Equal(gp, wp) {
		return fmt.Sprintf("table pages %#x, oracle %#x", gp, wp)
	}
	var a, b [tableBytes]byte
	for _, pa := range gp {
		if got.mem.ReadPhys(pa, a[:]) != nil || want.mem.ReadPhys(pa, b[:]) != nil {
			return fmt.Sprintf("table page %#x unreadable", pa)
		}
		if !bytes.Equal(a[:], b[:]) {
			for off := 0; off < tableBytes; off += entrySize {
				if x, y := binary.LittleEndian.Uint64(a[off:]), binary.LittleEndian.Uint64(b[off:]); x != y {
					return fmt.Sprintf("table %#x entry %d holds %#x, oracle %#x", pa, off/entrySize, x, y)
				}
			}
		}
	}
	if !maps.Equal(got.tables.macs, want.tables.macs) {
		return fmt.Sprintf("MAC tables differ (%d entries, oracle %d)", len(got.tables.macs), len(want.tables.macs))
	}
	if g, w := got.mem.LiveRows(), want.mem.LiveRows(); g != w {
		return fmt.Sprintf("%d live rows, oracle %d", g, w)
	}
	for i := range got.pools {
		if !slices.Equal(got.pools[i].used, want.pools[i].used) {
			return fmt.Sprintf("pool %d: pages out %v, oracle %v", i, got.pools[i].used, want.pools[i].used)
		}
	}
	check := func(gpa uint64) string {
		for _, write := range []bool{false, true} {
			gh, ge := got.tables.TranslateAccess(gpa, write)
			wh, we := want.tables.TranslateAccess(gpa, write)
			if gh != wh || !sameError(ge, we) {
				return fmt.Sprintf("translate(%#x, write=%v) = %#x, %v; oracle %#x, %v", gpa, write, gh, ge, wh, we)
			}
		}
		return ""
	}
	for s := uint64(fuzzSlot0); s < fuzzSlot0+fuzzSlots; s++ {
		if d := check(s * geometry.PageSize2M); d != "" {
			return d
		}
	}
	for _, s := range fuzzSlots4K {
		for p := uint64(fuzzPage0); p < fuzzPage0+28; p++ {
			if d := check(gpa4K(s, p)); d != "" {
				return d
			}
		}
	}
	return ""
}

// isTree reports whether the tables reachable from the root, read raw, are
// distinct pages of the hierarchy. The fuzzer takes back a flip that breaks
// this: once a pointer aliases another table (or itself) the order of loads
// and stores inside one edit shows, and the two implementations may rightly
// differ.
func (s *side) isTree() bool {
	pages := s.tables.Pages()
	seen := make(map[uint64]bool, len(pages))
	var walk func(pa uint64, level int) bool
	walk = func(pa uint64, level int) bool {
		if seen[pa] || !slices.Contains(pages, pa) {
			return false
		}
		seen[pa] = true
		var img [tableBytes]byte
		if s.mem.ReadPhys(pa, img[:]) != nil {
			return false
		}
		for off := 0; off < tableBytes && level < numLevels-1; off += entrySize {
			v := binary.LittleEndian.Uint64(img[off:])
			if v&entryPresent != 0 && v&entryLeaf == 0 && !walk(v&frameMask, level+1) {
				return false
			}
		}
		return true
	}
	return len(pages) == 0 || walk(s.tables.root.Load(), 0)
}

// zeroFreePages overwrites every free pool page with zeros. A Relocate that
// fails leaves the pages it drew and returned in whatever state it reached —
// the per-entry path zeroes each page on drawing it and fills it entry by
// entry, the page path verifies a whole source page before drawing its
// children and stores a destination once — so after a failed Relocate the free
// pages (their bytes, and whether their rows exist) are the one thing not
// compared; this puts both sides back in step for the steps that follow.
func (s *side) zeroFreePages() {
	for _, p := range s.pools {
		for i, used := range p.used {
			if !used {
				_ = s.mem.WritePhys(p.base+uint64(i)*tableBytes, make([]byte, tableBytes))
			}
		}
	}
}

// flip toggles one bit of DRAM, as a Rowhammer flip would.
func (s *side) flip(pa uint64, bit uint) {
	var b [1]byte
	_ = s.mem.ReadPhys(pa, b[:])
	b[0] ^= 1 << bit
	_ = s.mem.WritePhys(pa, b[:])
}

// fuzzOps encodes operations for the seed corpus: four bytes each, after the
// mode byte.
const (
	opMap2M, opRemap2M, opMap4K, opRemap4K = 0, 2, 3, 5
	opUnmap, opProtect, opRelocate, opFlip = 6, 8, 11, 12
	opDestroy                              = 15
)

func FuzzTableEditsMatchPerEntry(f *testing.F) {
	for mode := byte(0); mode < 3; mode++ {
		// Sixteen 2 MiB leaves across the directory boundary; dirty logging
		// armed twice (the second finds every bit right); a flip in an armed
		// leaf's ignored bits that a third arming must leave alone; disarm,
		// remap, relocate, unmap, relocate back.
		f.Add([]byte{mode,
			opMap2M, 0, 7, 1, opMap2M, 8, 7, 2,
			opProtect, 0, 7, 0, opProtect, 0, 7, 0,
			opFlip, 2, 13, 60, opProtect, 1, 5, 0, opProtect, 0, 0x87, 0,
			opRemap2M, 2, 7, 5, opRelocate, 1, 0, 0, opUnmap, 1, 7, 0, opRelocate, 0, 0, 0})
		// 4 KiB runs across a page-table boundary; a 2 MiB map over the
		// 4 KiB table; a double map; remaps, one read-only; a hole, then a
		// protect, a remap and an unmap over it (all or nothing); a write-bit
		// flip that leaves one entry of a protect run to store; relocate;
		// reopen.
		f.Add([]byte{mode,
			opMap4K, 0, 11, 3, opMap2M, 0, 0, 1, opMap4K, 3, 3, 9, opRemap4K, 12, 5, 4,
			opRemap4K, 0, 0x8b, 7, opUnmap, 3, 0, 1, opProtect, 0, 11, 1, opRemap4K, 0, 11, 2,
			opUnmap, 0, 11, 1, opFlip, 3, 10, 1, opProtect, 6, 5, 1, opRelocate, 1, 0, 0, opProtect, 6, 0x85, 1})
		// 2 MiB leaves around a 4 KiB table in one directory: protect and
		// unmap runs that meet the pointer and the directory boundary; a flip
		// that turns a leaf into a hole under a run; a 4 KiB run whose second
		// table refuses it; a map over the flipped hole; a relocation the pool
		// cannot hold; a destroy and what follows it.
		f.Add([]byte{mode,
			opMap2M, 0, 4, 0, opMap4K, 26, 3, 0, opMap2M, 6, 1, 3, opProtect, 0, 7, 0,
			opUnmap, 2, 2, 0, opFlip, 2, 12, 0, opProtect, 0, 0x83, 0, opUnmap, 0, 7, 0,
			opMap4K, 2, 11, 1, opMap4K, 0, 11, 1, opRelocate, 1, 0, 0, opRelocate, 1, 0, 0,
			opDestroy, 255, 0, 0, opMap2M, 0, 0, 0, opRelocate, 0, 0, 0})
	}
	// Found by the fuzzer while the oracle was being written: a 4 KiB-stride
	// protect over one 2 MiB leaf that runs into a hole (what counts as a
	// span), and a SecureEPT relocation with both a flipped entry and too few
	// pages (which fault is met first).
	f.Add([]byte("000$08281"))
	f.Add([]byte("10700C100020000007000,210C080+000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		mode := IntegrityMode(data[0] % 3)
		got, want := newSide(t, mode), newSide(t, mode)
		for step, d := 0, data[1:]; len(d) >= 4 && step < 48; step, d = step+1, d[4:] {
			k, a, b, c := d[0]%16, uint64(d[1]), uint64(d[2]), uint64(d[3])
			var desc string
			var gn, wn int
			var ge, we error
			run := func(op refOp) {
				desc = fmt.Sprintf("kind %d gpa %#x n %d of %d bytes -> %#x writable %v", op.kind, op.gpa, op.n, op.pageBytes, op.hpas, op.writable)
				gn, ge = got.tables.editRun(op.kind, op.gpa, op.n, op.pageBytes, op.hpas, op.writable)
				wn, we = want.tables.refRun(op)
			}
			// Addresses: a run of 2 MiB slots, or of 4 KiB pages near the
			// end of one of a few slots.
			slot, n2M := (fuzzSlot0+a%12)*geometry.PageSize2M, int(1+b%8)
			page, n4K := gpa4K(fuzzSlots4K[a%3], fuzzPage0+(a/3)%16), int(1+b%12)
			switch {
			case k <= opRemap2M:
				op := refOp{kind: editMap, gpa: slot, n: n2M, pageBytes: geometry.PageSize2M, writable: b&0x80 == 0}
				if k == opRemap2M {
					op.kind = editRemap
				}
				for i := uint64(0); i < uint64(op.n); i++ {
					op.hpas = append(op.hpas, (c+3*i)%8*geometry.PageSize2M)
				}
				run(op)
			case k <= opRemap4K:
				op := refOp{kind: editMap, gpa: page, n: n4K, pageBytes: geometry.PageSize4K, writable: b&0x80 == 0}
				if k == opRemap4K {
					op.kind = editRemap
				}
				for i := uint64(0); i < uint64(op.n); i++ {
					op.hpas = append(op.hpas, (7*c+5*i)%4096*geometry.PageSize4K)
				}
				run(op)
			case k < opRelocate:
				op := refOp{kind: editUnmap, gpa: slot, n: n2M, pageBytes: geometry.PageSize2M, writable: b&0x80 != 0}
				if k >= opProtect {
					op.kind = editProtect
				}
				if c&1 != 0 {
					op.gpa, op.n, op.pageBytes = page, n4K, geometry.PageSize4K
				}
				run(op)
			case k == opRelocate:
				desc = fmt.Sprintf("relocate to pool %d", a%2)
				gn, ge = got.tables.Relocate(got.pools[a%2])
				wn, we = want.tables.refRelocate(want.pools[a%2])
				if ge != nil || we != nil {
					got.zeroFreePages()
					want.zeroFreePages()
				}
			case k < opDestroy:
				pages := got.tables.Pages()
				if len(pages) == 0 {
					continue
				}
				pa := pages[a%uint64(len(pages))] + (496+b%32)%512*entrySize + c%64/8
				desc = fmt.Sprintf("flip bit %d of byte %#x", c%8, pa)
				got.flip(pa, uint(c%8))
				if !got.isTree() {
					got.flip(pa, uint(c%8))
					continue
				}
				want.flip(pa, uint(c%8))
			case a == 255:
				desc = "destroy"
				got.tables.Destroy()
				want.tables.Destroy()
			default:
				continue
			}
			if gn != wn || !sameError(ge, we) {
				t.Fatalf("step %d (%s): %d, %v; oracle %d, %v", step, desc, gn, ge, wn, we)
			}
			if d := diff(got, want); d != "" {
				t.Fatalf("step %d (%s): %s", step, desc, d)
			}
		}
	})
}

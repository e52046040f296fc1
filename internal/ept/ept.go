// Package ept implements extended page tables (§2.1, §5.4): the
// hypervisor-managed GPA→HPA mappings that hardware walks on guest memory
// access. Table pages live inside the simulated DRAM, so Rowhammer
// disturbance can corrupt entries exactly as on real hardware — the threat
// Siloz counters with guard-row placement or secure-EPT integrity checks.
package ept

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dram"
	"repro/internal/geometry"
)

// Entry bit layout (a simplified x86-64 EPT entry).
const (
	entryPresent = 1 << 0
	entryWrite   = 1 << 1 // write permission
	entryLeaf    = 1 << 7 // large-page bit at the PD level
	frameMask    = 0x000F_FFFF_FFFF_F000
)

const (
	pageShift  = 12
	levelBits  = 9
	levelMask  = (1 << levelBits) - 1
	numLevels  = 4
	entrySize  = 8
	tableBytes = geometry.PageSize4K
)

// IntegrityMode selects how EPT integrity is ensured (§5.4).
type IntegrityMode int

const (
	// NoProtection trusts DRAM contents (the unmodified baseline).
	NoProtection IntegrityMode = iota
	// SecureEPT models TDX/SNP-style hardware integrity: every entry
	// carries an out-of-band MAC verified on walk. Corruption is
	// detected — not prevented — so a flip becomes a fatal integrity
	// fault rather than an escape.
	SecureEPT
	// GuardRows places table pages in the guard-protected row group
	// block (§5.4), physically preventing flips; the walker trusts DRAM.
	GuardRows
)

func (m IntegrityMode) String() string {
	switch m {
	case NoProtection:
		return "none"
	case SecureEPT:
		return "secure-ept"
	case GuardRows:
		return "guard-rows"
	}
	return "invalid"
}

// Errors returned by Translate and the structural mutators.
var (
	// ErrNotMapped reports a GPA with no valid mapping.
	ErrNotMapped = errors.New("ept: gpa not mapped")
	// ErrIntegrity reports a failed secure-EPT integrity check: an EPT
	// entry changed outside the hypervisor's legitimate updates.
	ErrIntegrity = errors.New("ept: integrity check failed")
	// ErrPermission reports a write through a read-only mapping — the
	// EPT violation that makes ROM writes trap into the hypervisor
	// (§5.1's mediated access types).
	ErrPermission = errors.New("ept: write to read-only mapping")
	// ErrAlreadyMapped reports a Map over a present entry. Overwriting a
	// PD entry that points at a live 4 KiB page table would silently drop
	// its mappings and orphan the table page; callers replacing a leaf on
	// purpose use the Remap variants.
	ErrAlreadyMapped = errors.New("ept: gpa already mapped")
	// ErrDestroyed reports any use of a hierarchy after Destroy: its
	// frames are back in the free pool and its MACs are gone, so a walk
	// would dereference recycled memory.
	ErrDestroyed = errors.New("ept: tables destroyed")
)

// PageAllocator provides table pages; Siloz passes a GFP_EPT-backed
// allocator drawing from the EPT logical node (§5.4), the baseline passes a
// normal host-node allocator.
type PageAllocator interface {
	AllocTablePage() (uint64, error)
	FreeTablePage(pa uint64)
}

// Tables is one VM's extended page table hierarchy.
//
// Entry loads and stores are serialized by an internal lock, so guest-side
// walks may run concurrently with hypervisor-side entry updates (the
// write-protection flips of dirty-page tracking during live migration).
// Structural mutation — MapRun, UnmapRun, Destroy — is the hypervisor's and is
// not safe to race with itself.
type Tables struct {
	mem   *dram.Memory
	pages PageAllocator
	mode  IntegrityMode
	// root is atomic because translators that are not pause-gated (the
	// serving loop's software-TLB misses) start walks while Relocate swaps
	// hierarchies: the new one is complete before the store, so a walk sees
	// one hierarchy or the other — an EPTP switch.
	root atomic.Uint64
	all  []uint64 // every table page, for accounting and attack targeting

	entryMu   sync.Mutex        // serializes entry loads/stores, macs, destroyed
	macs      map[uint64]uint64 // entry pa -> MAC (SecureEPT only)
	destroyed bool              // Destroy ran; every entry access fails loudly
}

// New allocates an empty hierarchy (root only).
func New(mem *dram.Memory, pages PageAllocator, mode IntegrityMode) (*Tables, error) {
	root, err := pages.AllocTablePage()
	if err != nil {
		return nil, fmt.Errorf("ept: allocating root: %w", err)
	}
	t := &Tables{mem: mem, pages: pages, mode: mode, all: []uint64{root}}
	t.root.Store(root)
	if mode == SecureEPT {
		t.macs = make(map[uint64]uint64)
	}
	if err := t.zeroPage(root); err != nil {
		pages.FreeTablePage(root)
		return nil, err
	}
	return t, nil
}

// Mode returns the integrity mode.
func (t *Tables) Mode() IntegrityMode { return t.mode }

// Pages returns every table page (root first). The list is the tables' own,
// clipped, and read-only: the tables only ever append to it or replace it
// whole, so what a caller holds stays as it was returned, and the caller
// must not write to it.
func (t *Tables) Pages() []uint64 {
	return t.all[:len(t.all):len(t.all)]
}

// Destroy releases all table pages and poisons the hierarchy: the root and
// the MAC table are dropped along with the pages, so any later walk or map
// fails with ErrDestroyed instead of dereferencing recycled frames with
// stale MACs. Destroy is idempotent.
func (t *Tables) Destroy() {
	for _, pa := range t.all {
		t.pages.FreeTablePage(pa)
	}
	t.entryMu.Lock()
	t.all = nil
	t.root.Store(0)
	t.macs = nil
	t.destroyed = true
	t.entryMu.Unlock()
}

// zeroPage clears a fresh table page: one DRAM write, which materialises the
// page's rows.
func (t *Tables) zeroPage(pa uint64) error {
	var zeros [tableBytes]byte
	t.entryMu.Lock()
	defer t.entryMu.Unlock()
	return t.storeEntries(pa, zeros[:])
}

// loadEntries loads the consecutive entries at entryPA into buf with one DRAM
// read; verify checks them. Caller holds entryMu, as for the two below.
func (t *Tables) loadEntries(entryPA uint64, buf []byte) error {
	if t.destroyed {
		return fmt.Errorf("%w: load of entry %#x", ErrDestroyed, entryPA)
	}
	return t.mem.ReadPhys(entryPA, buf)
}

// storeEntries stores buf over the consecutive entries at entryPA with one
// DRAM write and mints each stored entry's MAC.
func (t *Tables) storeEntries(entryPA uint64, buf []byte) error {
	if t.destroyed {
		return fmt.Errorf("%w: store to entry %#x", ErrDestroyed, entryPA)
	}
	if err := t.mem.WritePhys(entryPA, buf); err != nil {
		return err
	}
	for off := uint64(0); off < uint64(len(buf)) && t.mode == SecureEPT; off += entrySize {
		t.macs[entryPA+off] = mac(entryPA+off, binary.LittleEndian.Uint64(buf[off:]))
	}
	return nil
}

// verify checks a loaded entry against its MAC in SecureEPT mode.
func (t *Tables) verify(entryPA, v uint64) error {
	if t.mode == SecureEPT {
		if want, ok := t.macs[entryPA]; !ok || want != mac(entryPA, v) {
			return fmt.Errorf("%w: entry %#x", ErrIntegrity, entryPA)
		}
	}
	return nil
}

// mac computes the keyed per-entry MAC used by the SecureEPT model.
func mac(entryPA, value uint64) uint64 {
	x := entryPA*0x9E3779B97F4A7C15 ^ value
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// readEntry loads one entry, verifying its MAC in SecureEPT mode.
func (t *Tables) readEntry(entryPA uint64) (uint64, error) {
	t.entryMu.Lock()
	defer t.entryMu.Unlock()
	var buf [entrySize]byte
	if err := t.loadEntries(entryPA, buf[:]); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(buf[:])
	return v, t.verify(entryPA, v)
}

// writeEntry stores one entry as a legitimate hypervisor update.
func (t *Tables) writeEntry(entryPA, v uint64) error {
	t.entryMu.Lock()
	defer t.entryMu.Unlock()
	var buf [entrySize]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return t.storeEntries(entryPA, buf[:])
}

// indexAt extracts the table index for a level (level 0 = root/PML4).
func indexAt(gpa uint64, level int) uint64 {
	shift := pageShift + levelBits*(numLevels-1-level)
	return (gpa >> shift) & levelMask
}

// pageBytesAt returns how much guest memory one entry of a level covers.
func pageBytesAt(level int) uint64 {
	return 1 << (pageShift + levelBits*(numLevels-1-level))
}

// Protect rewrites the leaf entry mapping gpa (2 MiB or 4 KiB) with the
// given write permission, leaving the frame intact. Clearing the write bit
// is how KVM's dirty logging arms a page during live migration (§2.1): the
// next guest store raises an EPT violation, the hypervisor logs the page
// dirty and re-enables the bit. An entry whose bit is already right is not
// stored again. Protecting an unmapped GPA returns ErrNotMapped.
func (t *Tables) Protect(gpa uint64, writable bool) error {
	_, err := t.ProtectRun(gpa, 1, geometry.PageSize4K, writable)
	return err
}

// MapRun installs leaves of pageBytes (2 MiB or 4 KiB) over consecutive
// unmapped pages from gpa: page i maps to hpas[i]. Like every run mutator it
// returns how many pages it edited before it stopped; see editRun.
func (t *Tables) MapRun(gpa uint64, hpas []uint64, pageBytes uint64, writable bool) (int, error) {
	return t.editRun(editMap, gpa, len(hpas), pageBytes, hpas, writable)
}

// RemapRun rewrites the present leaves of pageBytes over consecutive pages
// from gpa to the frames hpas.
func (t *Tables) RemapRun(gpa uint64, hpas []uint64, pageBytes uint64, writable bool) (int, error) {
	return t.editRun(editRemap, gpa, len(hpas), pageBytes, hpas, writable)
}

// UnmapRun clears the leaves mapping n consecutive pages of pageBytes from gpa.
func (t *Tables) UnmapRun(gpa uint64, n int, pageBytes uint64) (int, error) {
	return t.editRun(editUnmap, gpa, n, pageBytes, nil, false)
}

// ProtectRun sets the write permission of the leaves mapping n consecutive
// pages of pageBytes from gpa.
func (t *Tables) ProtectRun(gpa uint64, n int, pageBytes uint64, writable bool) (int, error) {
	return t.editRun(editProtect, gpa, n, pageBytes, nil, writable)
}

// editKind is what an edit does to each leaf entry it covers.
type editKind uint8

const (
	editMap     editKind = iota // install a leaf over a non-present entry
	editRemap                   // replace a present leaf of the same size
	editUnmap                   // clear a present leaf
	editProtect                 // rewrite a present leaf's write permission
)

// editRun is the one body under every mutator: it applies kind to n
// consecutive pages of pageBytes from gpa, one span at a time. A span is the
// stretch of the run whose leaf entries lie side by side in one table page —
// the whole run, unless it crosses into the next table or meets a leaf of
// another size. Each span is all or nothing (editSpan); the run stops at the
// first span that fails, and the count returned is the pages edited by the
// spans before it, so a caller can tell exactly which entries DRAM holds.
func (t *Tables) editRun(kind editKind, gpa uint64, n int, pageBytes uint64, hpas []uint64, writable bool) (int, error) {
	leafLevel := numLevels - 1 // unmap, protect: wherever the walk meets the leaf
	if kind <= editRemap && pageBytes == geometry.PageSize2M {
		leafLevel--
	}
	for _, hpa := range hpas {
		if pageBytes != pageBytesAt(leafLevel) || (gpa|hpa)%pageBytes != 0 {
			return 0, fmt.Errorf("ept: a leaf maps 2 MiB or 4 KiB and is aligned to it (%d bytes, gpa=%#x hpa=%#x)", pageBytes, gpa, hpa)
		}
	}
	// A span's entries are edited in a buffer on this frame. A short run —
	// every single-entry edit — does not pay for clearing a page-sized one.
	var short [8 * entrySize]byte
	buf := short[:]
	if n*entrySize > len(short) {
		var page [tableBytes]byte
		buf = page[:]
	}
	for done := 0; done < n; {
		g := gpa + uint64(done)*pageBytes
		table, level, err := t.leafTable(g, kind, leafLevel)
		if err != nil {
			return done, err
		}
		span := 1
		if pageBytesAt(level) == pageBytes {
			span = min(n-done, int(levelMask+1-indexAt(g, level)))
		}
		if span, err = t.editSpan(kind, table, level, g, buf[:span*entrySize], hpas[min(done, len(hpas)):], writable); err != nil {
			return done, err
		}
		done += span
	}
	return n, nil
}

// leafTable is the edit walk: from the root to the table page holding gpa's
// entry at leafLevel. A map allocates (zeroes and links) the intermediate
// tables it finds missing; an unmap or protect stops early at the level where
// it meets a leaf or a hole, which editSpan then edits or reports.
func (t *Tables) leafTable(gpa uint64, kind editKind, leafLevel int) (table uint64, level int, err error) {
	table = t.root.Load()
	for ; level < leafLevel; level++ {
		entryPA := table + indexAt(gpa, level)*entrySize
		v, err := t.readEntry(entryPA)
		if err != nil {
			return 0, 0, err
		}
		switch {
		case v&entryPresent == 0 && kind == editMap:
			next, err := t.pages.AllocTablePage()
			if err != nil {
				return 0, 0, fmt.Errorf("ept: allocating level-%d table: %w", level+1, err)
			}
			t.all = append(t.all, next)
			if err := t.zeroPage(next); err != nil {
				return 0, 0, err
			}
			v = (next & frameMask) | entryPresent | entryWrite
			if err := t.writeEntry(entryPA, v); err != nil {
				return 0, 0, err
			}
		case v&entryPresent == 0 && kind == editRemap:
			return 0, 0, fmt.Errorf("%w: gpa %#x (remap target, level %d)", ErrNotMapped, gpa, level)
		case v&entryLeaf != 0 && kind <= editRemap:
			return 0, 0, fmt.Errorf("%w: gpa %#x covered by a larger page", ErrAlreadyMapped, gpa)
		case v&entryPresent == 0 || v&entryLeaf != 0:
			return table, level, nil
		}
		table = v & frameMask
	}
	return table, level, nil
}

// editSpan edits up to len(buf)/8 consecutive entries of one table page, from
// gpa's entry at level, in buf and under one hold of entryMu: one DRAM read,
// every entry checked as a single-entry edit checks it (MAC, present, leaf,
// already mapped), and only then one DRAM write per maximal sub-run of entries
// that change, each stored entry minting its MAC. A failed check stores
// nothing. An entry a protect finds already right is not stored, so a flip
// that landed in it stays. An unmap or protect ends its span before an entry
// that points at a lower table — that page's leaf is down there — and returns
// the shorter length. frames is the run's frames from this span on (map,
// remap).
func (t *Tables) editSpan(kind editKind, table uint64, level int, gpa uint64, buf []byte, frames []uint64, writable bool) (int, error) {
	base, span := table+indexAt(gpa, level)*entrySize, len(buf)/entrySize
	t.entryMu.Lock()
	defer t.entryMu.Unlock()
	if err := t.loadEntries(base, buf); err != nil {
		return 0, err
	}
	for i := 0; i < span; i++ {
		v := binary.LittleEndian.Uint64(buf[i*entrySize:])
		if err := t.verify(base+uint64(i)*entrySize, v); err != nil {
			return 0, err
		}
		g := gpa + uint64(i)*pageBytesAt(level)
		present, leaf := v&entryPresent != 0, v&entryLeaf != 0 || level == numLevels-1
		switch {
		case kind == editMap && present:
			return 0, fmt.Errorf("%w: gpa %#x", ErrAlreadyMapped, g)
		case kind == editMap:
		case !present:
			return 0, fmt.Errorf("%w: gpa %#x (level %d)", ErrNotMapped, g, level)
		case !leaf && kind == editRemap:
			return 0, fmt.Errorf("%w: gpa %#x: entry holds a page-table pointer, not a leaf", ErrAlreadyMapped, g)
		case !leaf:
			span = i // never the first entry: leafTable walked past it
		}
	}
	var write, leafBit uint64 // what a new leaf carries besides its frame
	if writable {
		write = entryWrite
	}
	if level < numLevels-1 {
		leafBit = entryLeaf
	}
	pending := -1 // first entry of the sub-run being gathered, if any
	for i := 0; i <= span; i++ {
		changed := false
		if i < span {
			v, nv := binary.LittleEndian.Uint64(buf[i*entrySize:]), uint64(0)
			switch kind {
			case editProtect:
				nv = v&^entryWrite | write
			case editMap, editRemap:
				nv = frames[i]&frameMask | entryPresent | write | leafBit
			}
			changed = kind != editProtect || nv != v
			binary.LittleEndian.PutUint64(buf[i*entrySize:], nv)
		}
		switch {
		case changed && pending < 0:
			pending = i
		case !changed && pending >= 0:
			if err := t.storeEntries(base+uint64(pending)*entrySize, buf[pending*entrySize:i*entrySize]); err != nil {
				return 0, err
			}
			pending = -1
		}
	}
	return span, nil
}

// Translate walks the tables for gpa, returning the backing HPA. The walk
// reads entries from DRAM, so bit flips in table pages steer it — unless
// SecureEPT detects them (ErrIntegrity).
func (t *Tables) Translate(gpa uint64) (uint64, error) {
	return t.TranslateAccess(gpa, false)
}

// TranslateAccess walks the tables for an access of the given kind; a write
// through a read-only leaf returns ErrPermission (the EPT violation that
// exits into the hypervisor).
func (t *Tables) TranslateAccess(gpa uint64, write bool) (uint64, error) {
	table := t.root.Load()
	for level := 0; level < numLevels; level++ {
		entryPA := table + indexAt(gpa, level)*entrySize
		v, err := t.readEntry(entryPA)
		if err != nil {
			return 0, err
		}
		if v&entryPresent == 0 {
			return 0, fmt.Errorf("%w: gpa %#x (level %d)", ErrNotMapped, gpa, level)
		}
		frame := v & frameMask
		leaf := v&entryLeaf != 0 || level == numLevels-1
		if leaf {
			if write && v&entryWrite == 0 {
				return 0, fmt.Errorf("%w: gpa %#x", ErrPermission, gpa)
			}
			pageBytes := uint64(1) << (pageShift + levelBits*(numLevels-1-level))
			return frame | (gpa & (pageBytes - 1)), nil
		}
		table = frame
	}
	panic("unreachable")
}

// Relocate rebuilds the whole hierarchy on pages drawn from newAlloc and
// frees the old pages back to the allocator that provided them, returning
// the number of table pages moved. Cross-socket migration uses this to pull
// a VM's tables into the destination socket's guard-protected EPT block
// (§5.4): the guest must be paused (an entry edited in the old hierarchy
// mid-copy would be lost; only the root swap itself is atomic, see
// Tables.root). Tables move a page at a time: one DRAM read of the source
// page, child pointers rewritten in the image, one DRAM write of the
// destination — which under SecureEPT re-MACs every entry for its new PA
// simply by storing it there: the MAC is keyed by entry PA, so stale MACs
// cannot follow the move. On any partial failure the pages already drawn
// from newAlloc are returned and the old hierarchy stays live: the caller
// can resume the guest unharmed.
func (t *Tables) Relocate(newAlloc PageAllocator) (int, error) {
	oldPages, oldAlloc := t.all, t.pages
	var newPages []uint64
	fail := func(err error) (int, error) {
		for _, pa := range newPages {
			t.dropMACs(pa)
			newAlloc.FreeTablePage(pa)
		}
		return 0, err
	}
	// copyTable deep-copies the table at pa (and, recursively, every table
	// it points to) onto a fresh page, returning the new page's PA: one load,
	// the old MACs verified entry by entry — each before what it points to is
	// copied, so the first fault met is the one a walk would meet — and one
	// store, which mints MACs keyed by the new PAs. entryMu is held except
	// around the descent.
	var copyTable func(pa uint64, level int) (uint64, error)
	copyTable = func(pa uint64, level int) (uint64, error) {
		np, err := newAlloc.AllocTablePage()
		if err != nil {
			return 0, fmt.Errorf("ept: relocating level-%d table: %w", level, err)
		}
		newPages = append(newPages, np)
		var img [tableBytes]byte
		t.entryMu.Lock()
		defer t.entryMu.Unlock()
		err = t.loadEntries(pa, img[:])
		for off := 0; err == nil && off < tableBytes; off += entrySize {
			v := binary.LittleEndian.Uint64(img[off:])
			err = t.verify(pa+uint64(off), v)
			if err == nil && v&entryPresent != 0 && v&entryLeaf == 0 && level < numLevels-1 {
				t.entryMu.Unlock()
				var child uint64
				child, err = copyTable(v&frameMask, level+1)
				t.entryMu.Lock()
				binary.LittleEndian.PutUint64(img[off:], (v&^uint64(frameMask))|(child&frameMask))
			}
		}
		if err == nil {
			err = t.storeEntries(np, img[:])
		}
		return np, err
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

// dropMACs forgets the MAC entries for a table page being released, so a
// future tenant of the same frame starts clean.
func (t *Tables) dropMACs(pa uint64) {
	if t.mode != SecureEPT {
		return
	}
	t.entryMu.Lock()
	for off := uint64(0); off < tableBytes; off += entrySize {
		delete(t.macs, pa+off)
	}
	t.entryMu.Unlock()
}

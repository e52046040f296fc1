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
// Structural mutation — Map*, Unmap, Destroy — is the hypervisor's and is
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
		return nil, err
	}
	return t, nil
}

// Mode returns the integrity mode.
func (t *Tables) Mode() IntegrityMode { return t.mode }

// Pages returns every table page (root first).
func (t *Tables) Pages() []uint64 {
	out := make([]uint64, len(t.all))
	copy(out, t.all)
	return out
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

func (t *Tables) zeroPage(pa uint64) error {
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
	if t.destroyed {
		return 0, fmt.Errorf("%w: load of entry %#x", ErrDestroyed, entryPA)
	}
	var buf [entrySize]byte
	if err := t.mem.ReadPhys(entryPA, buf[:]); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(buf[:])
	if t.mode == SecureEPT {
		if want, ok := t.macs[entryPA]; !ok || want != mac(entryPA, v) {
			return 0, fmt.Errorf("%w: entry %#x", ErrIntegrity, entryPA)
		}
	}
	return v, nil
}

// writeEntry stores one entry as a legitimate hypervisor update.
func (t *Tables) writeEntry(entryPA, v uint64) error {
	t.entryMu.Lock()
	defer t.entryMu.Unlock()
	if t.destroyed {
		return fmt.Errorf("%w: store to entry %#x", ErrDestroyed, entryPA)
	}
	var buf [entrySize]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	if err := t.mem.WritePhys(entryPA, buf[:]); err != nil {
		return err
	}
	if t.mode == SecureEPT {
		t.macs[entryPA] = mac(entryPA, v)
	}
	return nil
}

// indexAt extracts the table index for a level (level 0 = root/PML4).
func indexAt(gpa uint64, level int) uint64 {
	shift := pageShift + levelBits*(numLevels-1-level)
	return (gpa >> shift) & levelMask
}

// Map2M installs a writable 2 MiB leaf mapping gpa → hpa (both 2 MiB
// aligned). The GPA must be unmapped; replacing a live leaf is Remap2M's job.
func (t *Tables) Map2M(gpa, hpa uint64) error {
	if gpa%geometry.PageSize2M != 0 || hpa%geometry.PageSize2M != 0 {
		return fmt.Errorf("ept: Map2M needs 2 MiB alignment (gpa=%#x hpa=%#x)", gpa, hpa)
	}
	return t.mapLeaf(gpa, hpa, 2, true, false)
}

// Remap2M rewrites the present 2 MiB leaf at gpa to a new writable frame —
// live migration's commit step. Remapping an unmapped GPA or a GPA whose PD
// entry points at a 4 KiB page table fails.
func (t *Tables) Remap2M(gpa, hpa uint64) error {
	if gpa%geometry.PageSize2M != 0 || hpa%geometry.PageSize2M != 0 {
		return fmt.Errorf("ept: Remap2M needs 2 MiB alignment (gpa=%#x hpa=%#x)", gpa, hpa)
	}
	return t.mapLeaf(gpa, hpa, 2, true, true)
}

// Map4K installs a writable 4 KiB leaf mapping gpa → hpa (both page
// aligned). The GPA must be unmapped; replacing a live leaf is Remap4K's job.
func (t *Tables) Map4K(gpa, hpa uint64) error { return t.Map4KProt(gpa, hpa, true) }

// Map4KProt installs a 4 KiB leaf with explicit write permission.
func (t *Tables) Map4KProt(gpa, hpa uint64, writable bool) error {
	if gpa%geometry.PageSize4K != 0 || hpa%geometry.PageSize4K != 0 {
		return fmt.Errorf("ept: Map4K needs 4 KiB alignment (gpa=%#x hpa=%#x)", gpa, hpa)
	}
	return t.mapLeaf(gpa, hpa, 3, writable, false)
}

// Remap4KProt rewrites the present 4 KiB leaf at gpa with explicit write
// permission — the region leg of live migration's commit step.
func (t *Tables) Remap4KProt(gpa, hpa uint64, writable bool) error {
	if gpa%geometry.PageSize4K != 0 || hpa%geometry.PageSize4K != 0 {
		return fmt.Errorf("ept: Remap4K needs 4 KiB alignment (gpa=%#x hpa=%#x)", gpa, hpa)
	}
	return t.mapLeaf(gpa, hpa, 3, writable, true)
}

// mapLeaf walks to leafLevel, allocating intermediate tables, and installs
// the leaf entry. With remap unset the target entry must be non-present —
// overwriting a PD entry that points at a live 4 KiB page table would
// silently drop its mappings and orphan the table page. With remap set the
// target must already hold a leaf of the same size.
func (t *Tables) mapLeaf(gpa, hpa uint64, leafLevel int, writable, remap bool) error {
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
			if err := t.zeroPage(next); err != nil {
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

// Translate walks the tables for gpa, returning the backing HPA. The walk
// reads entries from DRAM, so bit flips in table pages steer it — unless
// SecureEPT detects them (ErrIntegrity).
func (t *Tables) Translate(gpa uint64) (uint64, error) {
	return t.TranslateAccess(gpa, false)
}

// Unmap clears the leaf entry mapping gpa (2 MiB or 4 KiB). Intermediate
// tables are retained for reuse, as KVM does. Unmapping an unmapped GPA
// returns ErrNotMapped.
func (t *Tables) Unmap(gpa uint64) error {
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

// Protect rewrites the leaf entry mapping gpa (2 MiB or 4 KiB) with the
// given write permission, leaving the frame intact. Clearing the write bit
// is how KVM's dirty logging arms a page during live migration (§2.1): the
// next guest store raises an EPT violation, the hypervisor logs the page
// dirty and re-enables the bit. Protecting an unmapped GPA returns
// ErrNotMapped.
func (t *Tables) Protect(gpa uint64, writable bool) error {
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
// Tables.root), and under SecureEPT each copied
// entry is re-MACed for its new PA simply by being written there — the MAC
// is keyed by entry PA, so stale MACs cannot follow the move. On any
// partial failure the pages already drawn from newAlloc are returned and
// the old hierarchy stays live: the caller can resume the guest unharmed.
func (t *Tables) Relocate(newAlloc PageAllocator) (int, error) {
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
	// copyTable deep-copies the table at pa (and, recursively, every table
	// it points to) onto a fresh page, returning the new page's PA. Reads
	// verify the old MACs; writes mint MACs keyed by the new PAs.
	var copyTable func(pa uint64, level int) (uint64, error)
	copyTable = func(pa uint64, level int) (uint64, error) {
		np, err := newAlloc.AllocTablePage()
		if err != nil {
			return 0, fmt.Errorf("ept: relocating level-%d table: %w", level, err)
		}
		newPages = append(newPages, np)
		if err := t.zeroPage(np); err != nil {
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

// Package guest implements the guest operating system's side of the §2.1
// address translation story: guest page tables, stored in guest RAM and
// managed by the guest kernel, map guest virtual addresses (GVAs) to guest
// physical addresses (GPAs); the hypervisor's EPTs then map GPAs to host
// physical addresses. Together the packages realize all three address types
// the paper's background defines.
//
// The guest layer also makes the §9 trade-off concrete: a process inside
// the VM can hammer its *own* kernel's page tables (PTHammer-style), because
// Siloz only provides inter-VM isolation — everything the guest owns,
// including its page tables, shares the VM's subarray groups.
package guest

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/geometry"
)

// Page table entry layout mirrors x86-64: present bit 0, frame bits 12+.
const (
	ptePresent = 1 << 0
	pteFrame   = 0x000F_FFFF_FFFF_F000

	levels    = 4
	levelBits = 9
	ptShift   = 12
)

// ErrNotMapped reports an unmapped guest virtual address.
var ErrNotMapped = errors.New("guest: gva not mapped")

// ErrNonCanonical reports a GVA whose bits 63:47 do not sign-extend bit 47.
// A 4-level 48-bit walk ignores the high bits, so accepting such an address
// would silently alias the canonical mapping — real hardware raises #GP.
var ErrNonCanonical = errors.New("guest: non-canonical gva")

// ErrOutOfRange reports a GPA beyond the kernel's usable guest memory.
var ErrOutOfRange = errors.New("guest: gpa out of range")

// Kernel is a minimal guest OS: a physical-frame allocator over guest RAM
// and per-process page tables living inside that RAM.
type Kernel struct {
	vm *core.VM
	// nextFrame is the guest frame allocator bump pointer (GPA).
	nextFrame uint64
	limit     uint64
	// freeFrames holds frames returned to the kernel (displaced Map
	// targets); allocFrame reuses them before advancing the bump pointer.
	freeFrames []uint64
	procs      map[int]*Process
	nextPID    int
	balloon    *Balloon
}

// NewKernel boots a guest kernel inside a VM. Frame allocation starts after
// reserved low memory.
func NewKernel(vm *core.VM) *Kernel {
	return &Kernel{
		vm:        vm,
		nextFrame: 1 << 20, // leave the first MiB for "firmware"
		limit:     vm.Spec().MemoryBytes,
		procs:     make(map[int]*Process),
	}
}

// allocFrame hands out one zeroed 4 KiB guest frame, preferring frames on
// the free list over fresh bump-pointer memory. Free frames above the
// current limit (inside an inflated balloon) are skipped, not lost: a
// deflate raises the limit and makes them allocatable again.
func (k *Kernel) allocFrame() (uint64, error) {
	gpa, found := uint64(0), false
	for i := len(k.freeFrames) - 1; i >= 0; i-- {
		if f := k.freeFrames[i]; f+geometry.PageSize4K <= k.limit {
			gpa, found = f, true
			k.freeFrames = append(k.freeFrames[:i], k.freeFrames[i+1:]...)
			break
		}
	}
	if !found {
		if k.nextFrame+geometry.PageSize4K > k.limit {
			return 0, fmt.Errorf("guest: out of guest frames")
		}
		gpa = k.nextFrame
		k.nextFrame += geometry.PageSize4K
	}
	if err := k.vm.WriteGuest(gpa, make([]byte, geometry.PageSize4K)); err != nil {
		return 0, err
	}
	return gpa, nil
}

// freeFrame returns a guest frame to the kernel free list.
func (k *Kernel) freeFrame(gpa uint64) {
	k.freeFrames = append(k.freeFrames, gpa)
}

// canonical reports whether bits 63:47 of a GVA sign-extend bit 47 — the
// x86-64 canonical-form requirement for a 48-bit virtual address space.
func canonical(gva uint64) bool {
	top := int64(gva) >> 47
	return top == 0 || top == -1
}

// Process is one guest process with its own address space.
type Process struct {
	PID  int
	k    *Kernel
	root uint64 // GPA of the top-level page table
}

// Spawn creates a process with an empty address space.
func (k *Kernel) Spawn() (*Process, error) {
	root, err := k.allocFrame()
	if err != nil {
		return nil, err
	}
	k.nextPID++
	p := &Process{PID: k.nextPID, k: k, root: root}
	k.procs[p.PID] = p
	return p, nil
}

// readPTE loads a page table entry from guest RAM.
func (p *Process) readPTE(gpa uint64) (uint64, error) {
	var buf [8]byte
	if err := p.k.vm.ReadGuest(gpa, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// writePTE stores a page table entry into guest RAM.
func (p *Process) writePTE(gpa, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return p.k.vm.WriteGuest(gpa, buf[:])
}

func indexAt(gva uint64, level int) uint64 {
	shift := ptShift + levelBits*(levels-1-level)
	return (gva >> shift) & ((1 << levelBits) - 1)
}

// Map installs a 4 KiB mapping gva → gpa in the process's address space.
// Remapping an already-present GVA returns the displaced backing frame to
// the kernel free list. The GVA must be canonical and the GPA inside the
// kernel's usable guest memory (ballooned-out ranges are outside it).
func (p *Process) Map(gva, gpa uint64) error {
	if gva%geometry.PageSize4K != 0 || gpa%geometry.PageSize4K != 0 {
		return fmt.Errorf("guest: Map needs 4 KiB alignment (gva=%#x gpa=%#x)", gva, gpa)
	}
	if !canonical(gva) {
		return fmt.Errorf("%w: %#x", ErrNonCanonical, gva)
	}
	if gpa >= p.k.limit {
		return fmt.Errorf("%w: gpa %#x, usable guest memory ends at %#x", ErrOutOfRange, gpa, p.k.limit)
	}
	table := p.root
	for level := 0; level < levels-1; level++ {
		entryGPA := table + indexAt(gva, level)*8
		v, err := p.readPTE(entryGPA)
		if err != nil {
			return err
		}
		if v&ptePresent == 0 {
			next, err := p.k.allocFrame()
			if err != nil {
				return err
			}
			v = (next & pteFrame) | ptePresent
			if err := p.writePTE(entryGPA, v); err != nil {
				return err
			}
		}
		table = v & pteFrame
	}
	leafGPA := table + indexAt(gva, levels-1)*8
	old, err := p.readPTE(leafGPA)
	if err != nil {
		return err
	}
	if err := p.writePTE(leafGPA, (gpa&pteFrame)|ptePresent); err != nil {
		return err
	}
	if oldFrame := old & pteFrame; old&ptePresent != 0 && oldFrame != gpa {
		p.k.freeFrame(oldFrame)
	}
	return nil
}

// Translate walks the guest page tables for a GVA, returning the GPA. The
// walk reads page table entries from guest RAM — flipped PTE bits steer it,
// exactly like hardware.
func (p *Process) Translate(gva uint64) (uint64, error) {
	if !canonical(gva) {
		return 0, fmt.Errorf("%w: %#x", ErrNonCanonical, gva)
	}
	table := p.root
	for level := 0; level < levels; level++ {
		entryGPA := table + indexAt(gva, level)*8
		v, err := p.readPTE(entryGPA)
		if err != nil {
			return 0, err
		}
		if v&ptePresent == 0 {
			return 0, fmt.Errorf("%w: gva %#x (level %d)", ErrNotMapped, gva, level)
		}
		if level == levels-1 {
			return (v & pteFrame) | (gva & (geometry.PageSize4K - 1)), nil
		}
		table = v & pteFrame
	}
	panic("unreachable")
}

// Write stores data at a guest virtual address (single page).
func (p *Process) Write(gva uint64, data []byte) error {
	gpa, err := p.Translate(gva)
	if err != nil {
		return err
	}
	return p.k.vm.WriteGuest(gpa, data)
}

// Read loads data from a guest virtual address (single page).
func (p *Process) Read(gva uint64, buf []byte) error {
	gpa, err := p.Translate(gva)
	if err != nil {
		return err
	}
	return p.k.vm.ReadGuest(gpa, buf)
}

// HammerVirtual hammers the DRAM row backing a guest virtual address — an
// in-guest process's unmediated access path.
func (p *Process) HammerVirtual(gva uint64, count int, openNs int64) error {
	gpa, err := p.Translate(gva)
	if err != nil {
		return err
	}
	return p.k.vm.Hammer(gpa, count, openNs)
}

package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/mitigation"
	"repro/internal/numa"
)

// MediatedBase is the guest physical address where mediated regions (ROM,
// MMIO, virtio) are mapped, far above RAM.
const MediatedBase = uint64(1) << 40

// ErrMediated is returned when a guest attempts an unmediated-style access
// (e.g. hammering) to a mediated page: such accesses trap into the
// hypervisor, which can rate-limit them (§5.1).
var ErrMediated = errors.New("core: access to mediated page requires VM exit")

// VMSpec describes a VM to create.
type VMSpec struct {
	// Name identifies the VM (and its control group).
	Name string
	// Socket is the physical node supplying cores and memory; Siloz uses
	// same-socket subarray groups to preserve NUMA locality (§5.2).
	Socket int
	// MemoryBytes is guest RAM; must be a multiple of 2 MiB (guests are
	// backed by reserved, pinned 2 MiB huge pages, §5/§7).
	MemoryBytes uint64
	// MinMemoryBytes, if non-zero, is the smallest RAM the VM agrees to
	// run with: the balloon may inflate it down to this floor but no
	// further. Zero means the VM opts out of ballooning policy (the
	// planner will never shrink it), though explicit ResizeVM calls may
	// still take it down to one resident page. Must be a multiple of
	// 2 MiB and at most MemoryBytes.
	MinMemoryBytes uint64
	// VCPUs is the number of virtual CPUs.
	VCPUs int
	// MediatedBytes is host-mediated memory, allocated from
	// host-reserved nodes in 4 KiB pages (§5.1); kept as a convenience
	// shorthand for one anonymous MMIO region.
	MediatedBytes uint64
	// Regions are additional guest memory regions, classified by QEMU
	// memory type and placed according to their mediation (§5.1).
	Regions []Region
	// AllowRemote permits backing part of the VM with guest-reserved
	// nodes from other sockets when the home socket is full. Same-socket
	// groups are always preferred for NUMA locality (§5.2); remote pages
	// pay the usual cross-socket latency.
	AllowRemote bool
}

// VM is a created virtual machine.
type VM struct {
	spec VMSpec
	hv   *Hypervisor

	cgroup *numa.CGroup
	nodes  []*numa.Node // guest-reserved nodes backing RAM (Siloz)
	tables *ept.Tables
	// eptSocket is the socket whose EPT block (or host node, outside
	// guard-rows mode) currently holds the table pages. It starts as the
	// home socket and follows the guest across cross-socket migrations
	// (EPT relocation); Spec().Socket records only where the VM booted.
	eptSocket int
	// ram holds the HPA of each resident 2 MiB RAM page in GPA order: a
	// prefix of the GPA space whose length is the usable size. The balloon
	// is spec.MemoryBytes beyond it.
	ram []uint64
	// inflight lists the frames an open migration has taken for the VM and
	// not yet committed into ram or its regions: they are the VM's from the
	// take until the commit or the rollback, and Audit counts them as held.
	inflight []frameRun
	// leaves is the layout the EPT's 2 MiB RAM leaves currently hold: equal
	// to ram except inside a commit (layout.go).
	leaves []uint64
	// lifecycle is the per-VM lifecycle latch (under h.mu): the name of the
	// exclusive operation in flight ("resize", "live migration", "cross-host
	// move"), or "" when idle. Each rewrites the RAM layout or tears the VM
	// down, so at most one may run per VM.
	lifecycle string
	mediated  []uint64 // HPA of each 4 KiB mediated page, GPA order
	regions   []regionInfo
	// CATT guard bands (Config.Mitigation KindCATT): 2 MiB pages reserved
	// on both sides of each RAM extent so no other tenant can be placed
	// within the blast radius.
	guards []uint64
	// tlb is the software TLB, never nil once CreateVM returns. Reps of one
	// benchmark VM translate concurrently and the serving loop translates
	// while lifecycle operations commit, so it is lock-free: see tlbTable.
	tlb    atomic.Pointer[tlbTable]
	exits  uint64 // VM exits taken for mediated accesses
	pinned []int  // exclusively-pinned logical cores

	// devMu guards devices: the passthrough devices whose IOMMU tables
	// must track every RAM-layout change (migration, resize).
	devMu   sync.Mutex
	devices []*Device

	// pauseMu is the vCPU gate: guest accesses hold it shared, Pause takes
	// it exclusively (the stop-and-copy window of a live migration).
	pauseMu sync.RWMutex
	// dirtyMu guards the dirty-page log and tracking.
	tracking bool    // write-protection dirty logging armed
	dirty    pageSet // RAM pages dirtied this round
	dirtyMu  sync.Mutex

	// Confused-deputy rate limiting (§5.1): mediated accesses this
	// refresh window, and the window they were counted in.
	mediatedAccesses int
	mediatedWindow   int
}

// ErrThrottled is returned when a VM exceeds its per-window mediated access
// budget: host software refuses to be a hammering deputy (§5.1).
var ErrThrottled = errors.New("core: mediated access rate limit exceeded")

// pageSet is a set of RAM page indexes (2 MiB GPA units), one bit each: the
// dirty log. It grows to the highest page added.
type pageSet []uint64

func (s *pageSet) add(p int) {
	if w := p / 64; w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	(*s)[p/64] |= 1 << (p % 64)
}

// clear empties the set, keeping its storage for the next round.
func (s pageSet) clear() { clear(s) }

func (s pageSet) len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// next returns the smallest page in the set at or above p, or -1: walking
// from next(0) lists the set in ascending order.
func (s pageSet) next(p int) int {
	for w := p / 64; w < len(s); w++ {
		word := s[w]
		if w == p/64 {
			word &= ^uint64(0) << (p % 64)
		}
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// acquire finds the named VM and takes its lifecycle latch for op, failing
// with ErrResizeBusy if another lifecycle operation holds it. Caller holds
// h.mu, and drops the latch under it with releaseLifecycle (a destroy never
// does).
func (h *Hypervisor) acquire(name, op string) (*VM, error) {
	vm, ok := h.vms[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrVMNotFound, name)
	}
	if vm.lifecycle != "" {
		return nil, fmt.Errorf("%w: VM %q has a %s in flight; retry %s after it completes",
			ErrResizeBusy, name, vm.lifecycle, op)
	}
	vm.lifecycle = op
	return vm, nil
}

// releaseLifecycle drops the lifecycle latch. Caller holds h.mu.
func (vm *VM) releaseLifecycle() { vm.lifecycle = "" }

// eptAlloc adapts a node allocator to the ept.PageAllocator interface,
// modelling the GFP_EPT allocation path (§5.4).
type eptAlloc struct{ a *alloc.Allocator }

func (e eptAlloc) AllocTablePage() (uint64, error) { return e.a.Alloc(0) }
func (e eptAlloc) FreeTablePage(pa uint64)         { _ = e.a.Free(pa, 0) }

// CreateVM provisions a VM for the requesting process (§5.3): reserve
// guest-reserved nodes via an exclusive control group, allocate EPTs with
// GFP_EPT, and back RAM with 2 MiB huge pages from the reserved nodes
// (QEMU's UNMEDIATED mmap path) and mediated regions from host nodes.
func (h *Hypervisor) CreateVM(proc Process, spec VMSpec) (*VM, error) {
	if !proc.KVMPrivileged {
		return nil, fmt.Errorf("core: process lacks KVM privilege for guest-reserved allocation")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.vms[spec.Name]; dup {
		return nil, fmt.Errorf("core: VM %q already exists", spec.Name)
	}
	if spec.MemoryBytes == 0 || spec.MemoryBytes%geometry.PageSize2M != 0 {
		return nil, fmt.Errorf("core: MemoryBytes %d must be a positive multiple of 2 MiB", spec.MemoryBytes)
	}
	if spec.Socket < 0 || spec.Socket >= h.cfg.Geometry.Sockets {
		return nil, fmt.Errorf("core: socket %d out of range", spec.Socket)
	}
	if spec.MediatedBytes%geometry.PageSize4K != 0 {
		return nil, fmt.Errorf("core: MediatedBytes %d must be 4 KiB aligned", spec.MediatedBytes)
	}
	if spec.MinMemoryBytes%geometry.PageSize2M != 0 || spec.MinMemoryBytes > spec.MemoryBytes {
		return nil, fmt.Errorf("core: MinMemoryBytes %d must be a multiple of 2 MiB and at most MemoryBytes %d",
			spec.MinMemoryBytes, spec.MemoryBytes)
	}

	vm := &VM{spec: spec, hv: h, eptSocket: spec.Socket}

	if h.mode == ModeSiloz {
		if err := h.reserveGuestNodes(vm); err != nil {
			return nil, err
		}
	}

	if err := h.populate(vm); err != nil {
		vm.teardown()
		return nil, err
	}
	if h.cfg.Mitigation.GuardsAllocations() {
		h.reserveDomainGuards(vm)
	}
	h.vms[spec.Name] = vm
	return vm, nil
}

// populate builds what the reservation is for: the EPT hierarchy via GFP_EPT
// (§5.4), RAM, mediated pages and regions. On failure the caller tears down
// whatever the earlier steps built, the reservation included.
func (h *Hypervisor) populate(vm *VM) error {
	mode := ept.NoProtection
	if h.mode == ModeSiloz {
		mode = h.cfg.EPTProtection
	}
	eptA, err := h.eptAllocatorFor(vm.spec.Socket)
	if err != nil {
		return err
	}
	if vm.tables, err = ept.New(h.mem, eptAlloc{eptA}, mode); err != nil {
		return err
	}
	ram := h.sourceFrames(vm)
	if err := ram.take(alloc.Order2M, int(vm.spec.MemoryBytes/geometry.PageSize2M), false); err != nil {
		return err
	}
	// The transaction's frame list becomes the layout: nothing else keeps it.
	if err := vm.commitLayout(ram.frames, nil); err != nil {
		ram.rollback()
		return err
	}
	if err := h.allocMediated(vm); err != nil {
		return err
	}
	return h.allocRegions(vm)
}

// reserveGuestNodes creates the VM's exclusive control group over enough
// unowned guest-reserved nodes — a dry run of the frame-sourcing walk — to
// hold its RAM plus every unmediated region, so an over-subscribed socket
// refuses the VM before anything is allocated.
func (h *Hypervisor) reserveGuestNodes(vm *VM) error {
	bytes := vm.spec.MemoryBytes
	for _, r := range vm.spec.Regions {
		if r.Type.Unmediated() {
			bytes += r.Bytes
		}
	}
	t := h.sourceFrames(vm)
	t.dry = true
	if err := t.take(alloc.Order2M, int((bytes+geometry.PageSize2M-1)/geometry.PageSize2M), false); err != nil {
		return err
	}
	cg, err := h.reg.Create("vm:"+vm.spec.Name, t.adopted)
	if err != nil {
		return err
	}
	vm.cgroup = cg
	vm.nodes = cg.Nodes()
	return nil
}

// reserveDomainGuards implements the CATT allocation policy (software-only
// isolation): claim the 2 MiB pages holding every media row within the
// modelled blast radius of the VM's rows, so no later allocation — another
// tenant's RAM — can land where this VM's hammering reaches. The band is
// computed in DRAM row space through the mapper, not in physical-address
// space: under interleaved mappings the rows adjacent to a tenant's extent
// can live at physical addresses far from the extent itself, and a band of
// PA-contiguous flanking pages would guard the wrong memory. Claims that
// fail are skipped silently: the neighbour row is outside managed memory,
// offlined, or already claimed (by this VM's own RAM, or another tenant's
// guard band — adjacent tenants share one band, which is the policy's
// intent). Caller holds h.mu.
func (h *Hypervisor) reserveDomainGuards(vm *VM) {
	g := h.cfg.Geometry
	const band = mitigation.DefaultCATTGuardRows
	if len(vm.ram) == 0 {
		return
	}
	mapper := h.mem.Mapper()
	claim := func(pa uint64) {
		pa &^= uint64(geometry.PageSize2M - 1)
		a, err := h.Allocator(h.nodeOf(pa))
		if err != nil {
			return
		}
		if err := a.AllocAt(pa, alloc.Order2M); err != nil {
			return
		}
		vm.guards = append(vm.guards, pa)
		h.guardBytes += geometry.PageSize2M
	}
	// The VM's row footprint: one row group holds one row index across
	// every bank of a socket, so decoding each 2 MiB page's group bases
	// maps the RAM onto media rows.
	type socketRow struct{ socket, row int }
	groupBytes := uint64(g.RowGroupBytes())
	owned := map[socketRow]geometry.MediaAddr{}
	for _, page := range vm.ram {
		for off := uint64(0); off < geometry.PageSize2M; off += groupBytes {
			ma, err := mapper.Decode(page + off)
			if err != nil {
				continue
			}
			owned[socketRow{ma.Bank.Socket, ma.Row}] = ma
		}
	}
	// Claim the pages holding each non-owned row within band distance of
	// an owned row. Iteration is sorted so the guard list — and therefore
	// the allocator state downstream — is deterministic.
	keys := make([]socketRow, 0, len(owned))
	for k := range owned {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b socketRow) int {
		return cmp.Or(cmp.Compare(a.socket, b.socket), cmp.Compare(a.row, b.row))
	})
	for _, k := range keys {
		for d := 1; d <= band; d++ {
			for _, n := range [2]int{k.row - d, k.row + d} {
				if n < 0 || n >= g.RowsPerBank {
					continue
				}
				if _, ok := owned[socketRow{k.socket, n}]; ok {
					continue
				}
				ma := owned[k]
				ma.Row = n
				ma.Col = 0
				pa, err := mapper.Encode(ma)
				if err != nil {
					continue
				}
				claim(pa)
			}
		}
	}
}

// allocMediated backs mediated regions with host-reserved 4 KiB pages and
// maps them at MediatedBase.
func (h *Hypervisor) allocMediated(vm *VM) error {
	pages := int(vm.spec.MediatedBytes / geometry.PageSize4K)
	if pages == 0 {
		return nil
	}
	hpas, err := h.AllocHostPages(vm.spec.Socket, 0, pages)
	if err != nil {
		return err
	}
	if _, err := vm.tables.MapRun(MediatedBase, hpas, geometry.PageSize4K, true); err != nil {
		return err
	}
	vm.mediated = hpas
	return nil
}

// DestroyVM shuts a VM down, returning its memory to the logical nodes'
// free pools; the node reservation persists until the control group is
// destroyed separately (§5.3), which this helper also does for convenience.
func (h *Hypervisor) DestroyVM(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	vm, err := h.acquire(name, "destroy")
	if err != nil {
		return err
	}
	vm.teardown()
	delete(h.vms, name)
	return nil
}

// teardown releases everything the VM holds. Guest RAM, region, mediated and
// guard-band pages leave through vacate, which scrubs (zeroes) every one
// before it returns to the free pools, and every node of the domain is
// scrubbed whole before the control group goes, so memory recycled to the
// next tenant can never leak the previous tenant's bytes — its stores, or
// the flips its hammering left in frames it never held. Caller holds h.mu.
func (vm *VM) teardown() {
	h := vm.hv
	// Detach passthrough devices first: once the RAM frames return to the
	// free pools, a live IOMMU mapping would let the device DMA into (and
	// hammer) memory the next tenant may already own — the double-ownership
	// window CATTmew-style attacks exploit.
	vm.devMu.Lock()
	devices := vm.devices
	vm.devices = nil
	vm.devMu.Unlock()
	for _, d := range devices {
		d.detachTables()
	}
	gone := vm.ramRuns(0)
	for _, info := range vm.regions {
		gone = append(gone, info.frameRun)
	}
	if host, _, err := h.hostNode(vm.spec.Socket); err == nil && len(vm.mediated) > 0 {
		gone = append(gone, frameRun{node: host.ID, pages: vm.mediated})
	}
	for i, pa := range vm.guards { // never mapped, but where the VM's flips land
		gone = append(gone, frameRun{node: h.nodeOf(pa), order: alloc.Order2M, pages: vm.guards[i : i+1]})
	}
	h.guardBytes -= uint64(len(vm.guards)) * geometry.PageSize2M
	_, _, _ = h.vacate(vm, gone, nil, "") // a destroy has no one to report a scrub or free failure to
	vm.ram, vm.leaves = nil, nil
	vm.regions, vm.mediated, vm.guards = nil, nil, nil
	if vm.tables != nil {
		vm.tables.Destroy()
		vm.tables = nil
	}
	vm.releaseCores()
	if vm.cgroup != nil {
		for _, n := range vm.nodes {
			_ = h.scrubNode(n.ID) // as for vacate's errors: no one to report to
		}
		_ = h.reg.Destroy(vm.cgroup.Name)
		vm.cgroup, vm.nodes = nil, nil
	}
}

// Spec returns the VM's creation spec.
func (vm *VM) Spec() VMSpec { return vm.spec }

// Hypervisor returns the hypervisor hosting the VM.
func (vm *VM) Hypervisor() *Hypervisor { return vm.hv }

// Name returns the VM's name.
func (vm *VM) Name() string { return vm.spec.Name }

// Nodes returns the guest-reserved nodes backing the VM (Siloz mode).
func (vm *VM) Nodes() []*numa.Node { return vm.nodes }

// nodeIDs lists the IDs of the VM's guest-reserved nodes, in ID order.
func (vm *VM) nodeIDs() []int {
	ids := make([]int, len(vm.nodes))
	for i, n := range vm.nodes {
		ids[i] = n.ID
	}
	return ids
}

// Tables returns the VM's extended page tables.
func (vm *VM) Tables() *ept.Tables { return vm.tables }

// EPTSocket returns the socket whose EPT block currently hosts the VM's
// table pages. It equals Spec().Socket at boot and tracks the guest across
// cross-socket migrations once the tables are relocated.
func (vm *VM) EPTSocket() int { return vm.eptSocket }

// RAMPages returns the HPAs of the VM's resident 2 MiB RAM pages in GPA
// order.
func (vm *VM) RAMPages() []uint64 {
	return append(make([]uint64, 0, len(vm.ram)), vm.ram...)
}

// BalloonedBytes returns how much of the VM's RAM the balloon currently
// holds (surrendered to the host).
func (vm *VM) BalloonedBytes() uint64 {
	vm.hv.mu.Lock()
	defer vm.hv.mu.Unlock()
	return vm.spec.MemoryBytes - vm.usableBytes()
}

// MediatedPages returns the HPAs of the VM's mediated 4 KiB pages.
func (vm *VM) MediatedPages() []uint64 {
	out := make([]uint64, len(vm.mediated))
	copy(out, vm.mediated)
	return out
}

// isMediatedGPA reports whether the address is in the mediated window.
func (vm *VM) isMediatedGPA(gpa uint64) bool { return gpa >= MediatedBase }

// isRAMGPA reports whether the address is in the 2 MiB-backed RAM window
// (extra regions and the mediated window use 4 KiB pages).
func (vm *VM) isRAMGPA(gpa uint64) bool { return gpa < ROMBase }

// tlbTable is one generation of a VM's software TLB: one slot per 2 MiB RAM
// page in GPA order holding hpa|1 (0 = empty). A table is only ever filled,
// never edited: InvalidateTLB publishes a fresh one, so a translator that
// loaded the old table before a layout commit — and walked the pre-commit
// EPTs — fills the table that was just discarded, never the live one.
type tlbTable struct {
	slots []atomic.Uint64
	// inline backs slots for guests of up to tlbInlinePages, so header and
	// slots are one object and an invalidation costs one allocation — what
	// the map it replaced cost — on the control plane's common guest sizes.
	inline [tlbInlinePages]atomic.Uint64
}

// tlbInlinePages covers 128 MiB of guest RAM.
const tlbInlinePages = 64

func newTLBTable(ramPages int) *tlbTable {
	t := new(tlbTable)
	if ramPages <= tlbInlinePages {
		t.slots = t.inline[:ramPages]
	} else {
		t.slots = make([]atomic.Uint64, ramPages)
	}
	return t
}

// Translate resolves a GPA through the VM's EPTs with a software TLB; data
// accesses use it. InvalidateTLB forces re-walks (as hardware TLB flushes
// do), which is how EPT corruption becomes visible to translation.
func (vm *VM) Translate(gpa uint64) (uint64, error) {
	if vm.tables == nil {
		return 0, fmt.Errorf("core: VM %q has been destroyed", vm.spec.Name)
	}
	// The table is loaded before the walk and the fill goes into that same
	// table: see tlbTable for why a stale fill cannot outlive a commit.
	slots := vm.tlb.Load().slots
	page := gpa / geometry.PageSize2M
	if page < uint64(len(slots)) {
		if e := slots[page].Load(); e != 0 {
			return e - 1 + gpa%geometry.PageSize2M, nil
		}
	}
	hpa, err := vm.tables.Translate(gpa)
	if err != nil {
		return 0, err
	}
	if page < uint64(len(slots)) {
		slots[page].Store(hpa&^uint64(geometry.PageSize2M-1) | 1)
	}
	return hpa, nil
}

// TranslateUncached walks the EPTs directly, bypassing the TLB.
func (vm *VM) TranslateUncached(gpa uint64) (uint64, error) {
	if vm.tables == nil {
		return 0, fmt.Errorf("core: VM %q has been destroyed", vm.spec.Name)
	}
	return vm.tables.Translate(gpa)
}

// InvalidateTLB drops all cached translations by publishing an empty table
// sized to the current RAM page count. commitLayout calls it after the table
// edits and the publish, before the guest resumes. The caller holds the VM's lifecycle
// latch (CreateVM: has not published the VM yet), which is what lets it read
// vm.ram.
func (vm *VM) InvalidateTLB() {
	vm.tlb.Store(newTLBTable(len(vm.ram)))
}

// translateWrite resolves a GPA for a store. A write through a read-only
// mapping (guest ROM) raises an EPT violation: the access exits into the
// hypervisor, which emulates it (§5.1's mediated write path) — counted in
// Exits.
func (vm *VM) translateWrite(gpa uint64) (uint64, error) {
	if vm.tables == nil {
		return 0, fmt.Errorf("core: VM %q has been destroyed", vm.spec.Name)
	}
	if vm.isRAMGPA(gpa) {
		return vm.translateWriteRAM(gpa)
	}
	hpa, err := vm.tables.TranslateAccess(gpa, true)
	if errors.Is(err, ept.ErrPermission) {
		vm.exits++
		return vm.tables.TranslateAccess(gpa, false)
	}
	return hpa, err
}

// translateWriteRAM resolves a RAM store and, while dirty logging is armed,
// takes the write-protection fault path: the store faults, the fault handler
// logs the page dirty, reopens the leaf and retries, exactly KVM's
// dirty-logging flow during live migration pre-copy.
func (vm *VM) translateWriteRAM(gpa uint64) (uint64, error) {
	pageBase := gpa &^ uint64(geometry.PageSize2M-1)
	vm.dirtyMu.Lock()
	if !vm.tracking {
		vm.dirtyMu.Unlock()
		return vm.Translate(gpa) // RAM is always writable; TLB applies
	}
	defer vm.dirtyMu.Unlock()
	hpa, err := vm.tables.TranslateAccess(gpa, true)
	if errors.Is(err, ept.ErrPermission) {
		// EPT write-protection violation: VM exit, log dirty, reopen.
		vm.exits++
		vm.dirty.add(int(gpa / geometry.PageSize2M))
		if perr := vm.tables.Protect(pageBase, true); perr != nil {
			return 0, perr
		}
		hpa, err = vm.tables.TranslateAccess(gpa, true)
	}
	return hpa, err
}

// Pause stops the guest's vCPUs: guest loads and stores block until Resume.
// It is the stop-and-copy gate of live migration.
func (vm *VM) Pause() { vm.pauseMu.Lock() }

// Resume restarts a paused guest.
func (vm *VM) Resume() { vm.pauseMu.Unlock() }

// protectRAM sets the write permission of the first upto RAM leaves in one
// run. It returns the leaves it got through, so a second call over that
// prefix undoes it.
func (vm *VM) protectRAM(upto int, writable bool) (int, error) {
	return vm.tables.ProtectRun(0, upto, geometry.PageSize2M, writable)
}

// StartDirtyTracking arms write-protection dirty logging over guest RAM
// (KVM's KVM_MEM_LOG_DIRTY_PAGES): every 2 MiB leaf is write-protected, so
// the guest's first store to each page takes an EPT-violation exit that logs
// the page dirty and reopens the leaf. The guest is paused for the duration
// of the arming, so no store can straddle it — any write either completed
// before tracking began (and is captured by the migration's full first-round
// copy) or faults into the dirty log.
func (vm *VM) StartDirtyTracking() error {
	vm.pauseMu.Lock()
	defer vm.pauseMu.Unlock()
	vm.dirtyMu.Lock()
	defer vm.dirtyMu.Unlock()
	if vm.tables == nil {
		return fmt.Errorf("core: VM %q has been destroyed", vm.spec.Name)
	}
	if vm.tracking {
		return fmt.Errorf("core: VM %q is already dirty-tracking (migration in progress?)", vm.spec.Name)
	}
	if n, err := vm.protectRAM(len(vm.ram), false); err != nil {
		_, _ = vm.protectRAM(n, true)
		return err
	}
	vm.dirty.clear()
	vm.tracking = true
	return nil
}

// TakeDirty drains the dirty-page log, re-arming write protection on the
// drained pages so subsequent stores are logged again, and returns the dirty
// 2 MiB page GPAs in ascending order — one pre-copy round's work list.
func (vm *VM) TakeDirty() ([]uint64, error) {
	vm.dirtyMu.Lock()
	defer vm.dirtyMu.Unlock()
	if !vm.tracking {
		return nil, fmt.Errorf("core: VM %q is not dirty-tracking", vm.spec.Name)
	}
	gpas := make([]uint64, 0, vm.dirty.len())
	for p := vm.dirty.next(0); p >= 0; p = vm.dirty.next(p + 1) {
		gpas = append(gpas, uint64(p)*geometry.PageSize2M)
	}
	for i := 0; i < len(gpas); {
		n := 1
		for i+n < len(gpas) && gpas[i+n] == gpas[i]+uint64(n)*geometry.PageSize2M {
			n++
		}
		if _, err := vm.tables.ProtectRun(gpas[i], n, geometry.PageSize2M, false); err != nil {
			return nil, err
		}
		i += n
	}
	vm.dirty.clear()
	return gpas, nil
}

// StopDirtyTracking disarms dirty logging, restoring write permission on
// every RAM leaf — the migration-abort path. (The commit path instead remaps
// every leaf to its destination page, which reopens them implicitly.)
func (vm *VM) StopDirtyTracking() error {
	vm.pauseMu.Lock()
	defer vm.pauseMu.Unlock()
	vm.dirtyMu.Lock()
	defer vm.dirtyMu.Unlock()
	if !vm.tracking {
		return nil
	}
	if vm.tables != nil {
		if _, err := vm.protectRAM(len(vm.ram), true); err != nil {
			return err
		}
	}
	vm.tracking = false
	vm.dirty.clear()
	return nil
}

// DirtyTracking reports whether dirty logging is armed.
func (vm *VM) DirtyTracking() bool {
	vm.dirtyMu.Lock()
	defer vm.dirtyMu.Unlock()
	return vm.tracking
}

// WriteGuest stores data at a guest physical address. The access holds the
// vCPU gate shared: a paused VM (stop-and-copy) blocks here until Resume.
func (vm *VM) WriteGuest(gpa uint64, data []byte) error {
	vm.pauseMu.RLock()
	defer vm.pauseMu.RUnlock()
	return vm.guestIter(gpa, len(data), vm.translateWrite, func(hpa uint64, off, n int) error {
		return vm.hv.mem.WritePhys(hpa, data[off:off+n])
	})
}

// ReadGuest loads len(buf) bytes from a guest physical address.
func (vm *VM) ReadGuest(gpa uint64, buf []byte) error {
	vm.pauseMu.RLock()
	defer vm.pauseMu.RUnlock()
	return vm.guestIter(gpa, len(buf), vm.Translate, func(hpa uint64, off, n int) error {
		return vm.hv.mem.ReadPhys(hpa, buf[off:off+n])
	})
}

// WriteGuestRow stores data into the one DRAM bank row behind gpa, from gpa's
// cache line on: the mapping interleaves consecutive lines over banks, so the
// row's lines sit a fixed stride apart in the address space
// (dram.Memory.RowStride) and line j of data is the guest's line at
// gpa + j*stride. It is WriteGuest for that strided set of lines — the same
// bytes land in DRAM and the same pages enter the dirty log — at one
// translation per 2 MiB page and one row-store access per page the row's
// lines fall in (one, unless a row group straddles two pages). gpa must be
// line-aligned RAM and data must end inside the row.
func (vm *VM) WriteGuestRow(gpa uint64, data []byte) error {
	_, err := vm.guestRow(gpa, data, true)
	return err
}

// ReadGuestRow is the load WriteGuestRow is the store of. It returns the
// stride, which tells the caller where each line of buf lives.
func (vm *VM) ReadGuestRow(gpa uint64, buf []byte) (stride uint64, err error) {
	return vm.guestRow(gpa, buf, false)
}

// guestRow branches on write at each call instead of picking the translator
// and the accessor once as function values: through a function value buf
// would escape, and callers keep it on their stack.
func (vm *VM) guestRow(gpa uint64, buf []byte, write bool) (stride uint64, err error) {
	vm.pauseMu.RLock()
	defer vm.pauseMu.RUnlock()
	mem := vm.hv.mem
	for done := 0; done < len(buf); {
		cur := gpa + uint64(done/geometry.CacheLineSize)*stride
		if !vm.isRAMGPA(cur) {
			return stride, fmt.Errorf("core: row access at gpa %#x is not confined to RAM", cur)
		}
		var hpa uint64
		if write {
			hpa, err = vm.translateWrite(cur)
		} else {
			hpa, err = vm.Translate(cur)
		}
		if err != nil {
			return stride, err
		}
		if stride == 0 {
			if stride, err = mem.RowStride(hpa); err != nil {
				return stride, err
			}
		}
		// The row has one line every stride bytes up to the end of the page.
		room := geometry.PageSize2M - cur%geometry.PageSize2M
		seg := min(len(buf)-done, int((room+stride-1)/stride)*geometry.CacheLineSize)
		if write {
			err = mem.WriteRowPhys(hpa, buf[done:done+seg])
		} else {
			_, err = mem.ReadRowPhys(hpa, buf[done:done+seg])
		}
		if err != nil {
			return stride, err
		}
		done += seg
	}
	return stride, nil
}

// guestIter walks a guest range in page-bounded pieces.
func (vm *VM) guestIter(gpa uint64, n int, translate func(uint64) (uint64, error), fn func(hpa uint64, off, n int) error) error {
	pageSize := uint64(geometry.PageSize2M)
	if !vm.isRAMGPA(gpa) {
		pageSize = geometry.PageSize4K
	}
	off := 0
	for off < n {
		cur := gpa + uint64(off)
		hpa, err := translate(cur)
		if err != nil {
			return err
		}
		chunk := int(pageSize - cur%pageSize)
		if chunk > n-off {
			chunk = n - off
		}
		if vm.isMediatedGPA(cur) {
			// Every mediated-window access exits; the host performs
			// the DRAM access on the guest's behalf and rate-limits
			// it so it cannot be abused as a hammering deputy (§5.1).
			vm.exits++
			if err := vm.mediatedAccess(hpa); err != nil {
				return err
			}
		}
		if err := fn(hpa, off, chunk); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

// mediatedAccess accounts one host-performed access to a mediated page:
// the host's own load/store activates the row (so unbounded exit-driven
// accesses could hammer host-reserved rows), hence the per-window cap.
func (vm *VM) mediatedAccess(hpa uint64) error {
	h := vm.hv
	if w := h.mem.Window(); w != vm.mediatedWindow {
		vm.mediatedWindow = w
		vm.mediatedAccesses = 0
	}
	limit := h.cfg.MediatedAccessLimit
	if limit > 0 && vm.mediatedAccesses >= limit {
		return fmt.Errorf("%w: VM %q exceeded %d accesses this window", ErrThrottled, vm.spec.Name, limit)
	}
	vm.mediatedAccesses++
	return h.mem.ActivatePhys(hpa, 1, 0)
}

// Hammer issues count activations against the DRAM row backing a guest
// physical address, holding the row open openNs per activation — the
// unmediated access a malicious guest uses for Rowhammer. Mediated pages
// cannot be hammered: the required VM exits let the host rate-limit (§5.1).
//
// Like every other guest access, Hammer holds the vCPU gate shared: a
// paused VM (stop-and-copy, a resize's commit and drain) blocks here until
// Resume. Without the gate a hammer loop could translate through a stale
// TLB entry and keep activating a frame the balloon had already freed —
// possibly re-owned by the next tenant by the time the activation lands.
func (vm *VM) Hammer(gpa uint64, count int, openNs int64) error {
	vm.pauseMu.RLock()
	defer vm.pauseMu.RUnlock()
	if vm.isMediatedGPA(gpa) {
		return fmt.Errorf("%w: gpa %#x", ErrMediated, gpa)
	}
	hpa, err := vm.Translate(gpa)
	if err != nil {
		return err
	}
	return vm.hv.mem.ActivatePhys(hpa, count, openNs)
}

// GuardPages returns the HPAs of the VM's CATT guard-band 2 MiB pages
// (empty unless the boot deployed KindCATT). A flip landing in a guard
// page corrupted memory no tenant owns — contained by construction.
func (vm *VM) GuardPages() []uint64 {
	vm.hv.mu.Lock()
	defer vm.hv.mu.Unlock()
	out := make([]uint64, len(vm.guards))
	copy(out, vm.guards)
	return out
}

// OwnsHPA reports whether a host physical address belongs to the VM's RAM.
func (vm *VM) OwnsHPA(pa uint64) bool {
	return slices.Contains(vm.ram, pa&^uint64(geometry.PageSize2M-1))
}

// InDomain reports whether a host physical address lies inside the VM's
// reserved subarray groups (its DRAM isolation domain). Only meaningful
// under Siloz.
func (vm *VM) InDomain(pa uint64) bool {
	for _, n := range vm.nodes {
		if n.Contains(pa) {
			return true
		}
	}
	return false
}

// noteDMAWrite folds one device store into the dirty-page log while dirty
// logging is armed — the software model of IOMMU dirty-bit harvesting — so
// live migration and a cross-host move re-copy the page.
// Without this, a DMA between the final TakeDirty round and stop-and-copy
// would leave a destination copy missing the DMA'd bytes.
func (vm *VM) noteDMAWrite(gpa uint64) {
	if !vm.isRAMGPA(gpa) {
		return
	}
	vm.dirtyMu.Lock()
	defer vm.dirtyMu.Unlock()
	if vm.tracking {
		vm.dirty.add(int(gpa / geometry.PageSize2M))
	}
}

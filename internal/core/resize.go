package core

// The resize facade: one entry point for every change to a running VM's
// memory footprint. A VM's RAM is a GPA prefix — vm.ram holds the resident
// 2 MiB pages, and its length is the usable size — and the balloon is the
// spec's size beyond it. Callers say what size they want —
// core.ResizeVM(name, targetBytes) — and the facade runs exactly one leg:
//
//   - shrink (balloon inflate) commits the shorter prefix: the top pages'
//     EPT leaves and IOMMU entries are unmapped, so the guest can no longer
//     reach them, and the frames are vacated — scrubbed, every one, and
//     returned to their node — after which every node the VM no longer
//     holds a frame on is scrubbed whole, leaves its control group and
//     returns to the admission pool (virtio-balloon semantics over Siloz's
//     isolation domains).
//   - grow takes every page it needs in one frame transaction under the VM's
//     placement policy (frames.go), adopting unowned subarray-group nodes
//     when what it owns runs out. The pages up to the spec's size refill the
//     balloon (deflate); the pages beyond it are hot-added (memory hotplug)
//     and scrubbed before the guest can see them, so a recycled frame never
//     leaks a previous tenant's bytes and the hot-added range reads all-zero
//     like real hot-added DIMM memory. One commit maps them all and the
//     spec's size grows to cover them.
//
// Both legs pause the guest across their commit, so no access can race the
// EPT edit or observe a half-built range. On failure a grow's transaction
// rolls back completely: the VM keeps exactly its previous size and node set.
//
// planResize is the one validator: every input ResizeVM refuses, it refuses
// before the leg starts, and the legs check nothing. PreviewResize answers
// the same question without mutating anything — which action, how many
// pages, which nodes would drain or be adopted. ResizeVM runs under the
// per-VM lifecycle latch, so a resize can never interleave with another
// resize or a live migration of the same VM. The guest half lives in
// internal/guest: Kernel.Resize asks for the new size and moves the
// kernel's usable-memory limit with it.

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/geometry"
)

// ResizeAction identifies the mechanism a resize dispatches to.
type ResizeAction int

const (
	// ResizeNone: the VM already has the target size.
	ResizeNone ResizeAction = iota
	// ResizeInflate shrinks by inflating the balloon.
	ResizeInflate
	// ResizeDeflate grows within the spec's size by deflating the balloon.
	ResizeDeflate
	// ResizeHotplug grows beyond the spec's size by hot-adding memory
	// (deflating any balloon remnant in the same leg).
	ResizeHotplug
)

func (a ResizeAction) String() string {
	switch a {
	case ResizeNone:
		return "none"
	case ResizeInflate:
		return "balloon-inflate"
	case ResizeDeflate:
		return "balloon-deflate"
	case ResizeHotplug:
		return "hotplug"
	}
	return "invalid"
}

// ResizePlan is PreviewResize's answer: what a resize to Target would do,
// computed without mutating anything.
type ResizePlan struct {
	VM      string
	Current uint64 // usable guest RAM now (spec size minus balloon)
	Target  uint64
	Action  ResizeAction

	Pages         int   // 2 MiB pages the action moves (surrendered, or restored plus hot-added)
	ReleasedNodes []int // guest nodes a shrink would drain and release
	AdoptedNodes  []int // unowned guest nodes a grow would adopt (in adoption order)
}

// ResizeReport summarizes one ResizeVM call.
type ResizeReport struct {
	VM       string
	Previous uint64 // usable guest RAM before the call
	Target   uint64
	Action   ResizeAction

	Pages         int    // 2 MiB pages moved: surrendered, or restored plus hot-added
	ScrubbedBytes uint64 // frame bytes zeroed: surrendered pages before release, hot-added pages before mapping
	ReleasedNodes []int  // guest nodes drained and returned to the pool
	AdoptedNodes  []int  // guest nodes adopted to back a grow
}

// usableBytes is the guest RAM the VM can touch: the resident prefix.
// Caller holds h.mu.
func (vm *VM) usableBytes() uint64 {
	return uint64(len(vm.ram)) * geometry.PageSize2M
}

// balloonFloor is the smallest resident RAM a balloon may leave behind:
// the spec's MinMemoryBytes, and never less than one 2 MiB page (a VM with
// zero resident pages would own no guest nodes, breaking the audit's
// VM-has-a-domain invariant).
func balloonFloor(spec VMSpec) uint64 {
	return max(spec.MinMemoryBytes, geometry.PageSize2M)
}

// planResize is the dispatch and the validation ResizeVM and PreviewResize
// share: which mechanism reaches targetBytes, how many pages it moves and —
// from a dry run of the frame-sourcing walk — which unowned nodes a grow
// would adopt, so an infeasible grow is refused before it starts. Caller
// holds h.mu.
func (h *Hypervisor) planResize(vm *VM, targetBytes uint64) (ResizePlan, error) {
	name := vm.spec.Name
	if targetBytes == 0 || targetBytes%geometry.PageSize2M != 0 {
		return ResizePlan{}, fmt.Errorf("core: resize target %d must be a positive multiple of 2 MiB", targetBytes)
	}
	if vm.DirtyTracking() {
		return ResizePlan{}, fmt.Errorf("core: VM %q has dirty logging armed; a resize would lose protection state", name)
	}
	plan := ResizePlan{VM: name, Current: vm.usableBytes(), Target: targetBytes}
	plan.Pages = int(targetBytes/geometry.PageSize2M) - len(vm.ram)
	switch {
	case plan.Pages == 0:
		plan.Action = ResizeNone
		return plan, nil

	case plan.Pages < 0:
		if floor := balloonFloor(vm.spec); targetBytes < floor {
			return plan, fmt.Errorf("core: resize target %d below VM %q's floor %d", targetBytes, name, floor)
		}
		plan.Action, plan.Pages = ResizeInflate, -plan.Pages
		return plan, nil

	case targetBytes <= vm.spec.MemoryBytes:
		plan.Action = ResizeDeflate

	case targetBytes > ROMBase:
		return plan, fmt.Errorf("core: resize would grow VM %q past the RAM window end %#x", name, ROMBase)

	default:
		plan.Action = ResizeHotplug
	}
	t := h.sourceFrames(vm)
	t.dry = true
	err := t.take(alloc.Order2M, plan.Pages, false)
	plan.AdoptedNodes = t.adopted
	return plan, err
}

// ResizeVM resizes a running VM's usable memory to targetBytes: a shrink
// inflates the balloon, a grow deflates it and, past the spec's size, hot-adds
// memory, in one leg either way. It is the one way to change a running VM's
// memory footprint. The call holds the VM's lifecycle latch end to end — a
// concurrent resize or migration of the same VM fails with ErrResizeBusy —
// and a failed grow leaves the VM as it was.
//
// After the leg, the EPT tables follow the guest: dropping a VM's last node
// on a socket, or adopting only remote ones, can leave the whole reservation
// on one socket while the tables stay on the other. A relocation failure
// does not undo the resize: the report is returned together with the error,
// and a caller keeping its own view of the VM's size must commit it
// whenever the report is non-nil.
func (h *Hypervisor) ResizeVM(name string, targetBytes uint64) (*ResizeReport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	vm, err := h.acquire(name, "resize")
	if err != nil {
		return nil, err
	}
	defer vm.releaseLifecycle()
	plan, err := h.planResize(vm, targetBytes)
	if err != nil {
		return nil, err
	}
	rep := &ResizeReport{VM: plan.VM, Previous: plan.Current, Target: targetBytes, Action: plan.Action, Pages: plan.Pages}
	switch plan.Action {
	case ResizeInflate:
		err = h.shrink(vm, plan.Pages, rep)
	case ResizeDeflate, ResizeHotplug:
		err = h.grow(vm, plan.Pages, rep)
	}
	if err != nil {
		return nil, err
	}
	if err := h.relocateIfStranded(vm); err != nil {
		return rep, fmt.Errorf("core: resize of VM %q left EPT tables behind: %w", name, err)
	}
	return rep, nil
}

// shrink is ResizeVM's inflate leg: it surrenders the top n resident pages,
// matching the guest driver's top-down pinning. Caller holds h.mu and the
// VM's lifecycle latch.
func (h *Hypervisor) shrink(vm *VM, n int, rep *ResizeReport) error {
	keep := len(vm.ram) - n
	// The guest is paused across the unmap+free so no store can race the
	// EPT edit (the same stop-the-world window a real balloon's
	// MADV_DONTNEED takes, just coarser). Hammer and device DMA hold the
	// same gate, so no stale-translation activation can land mid-drain.
	vm.Pause()
	defer vm.Resume()

	// Commit the shorter prefix. After this the surrendered ranges are
	// unreachable architecturally — the frames still hold guest data but
	// only physical access remains. The prefix is clipped so that a later
	// grow appends to a fresh array: no commit overwrites a slot a layout
	// has published, and the runs of ramRuns alias those slots.
	gone := vm.ramRuns(keep)
	if err := vm.commitLayout(vm.ram[:keep:keep], nil); err != nil {
		return err
	}
	h.probe(Event{Kind: ProbeBalloonUnmapped, VM: vm})

	var err error
	rep.ScrubbedBytes, rep.ReleasedNodes, err = h.vacate(vm, gone, vm.nodeIDs(), ProbeBalloonDrained)
	return err
}

// grow is ResizeVM's deflate and hotplug leg: it maps n more pages at the top
// of the resident prefix, all taken in one frame transaction, and grows the
// spec's size over the ones past it. Caller holds h.mu and the VM's
// lifecycle latch.
func (h *Hypervisor) grow(vm *VM, n int, rep *ResizeReport) error {
	t := h.sourceFrames(vm)
	if err := t.take(alloc.Order2M, n, false); err != nil {
		return err
	}
	ram := append(vm.ram, t.frames...)
	added := ram[min(len(ram), int(vm.spec.MemoryBytes/geometry.PageSize2M)):]
	if len(added) > 0 {
		// The adoption window is open: the frames (and any adopted nodes)
		// now belong to this VM's domain but are not yet scrubbed or mapped.
		// An attacker cannot reach them through any translation path — only
		// the registry transfer has happened.
		h.probe(Event{Kind: ProbeHotplugAdopted, VM: vm})
	}
	// Scrub before mapping: the guest must only ever observe zeros in the
	// hot-added range, whatever the frames held before. The pages that
	// refill the balloon are not scrubbed here: vacate scrubbed every frame
	// when it left its last VM.
	for _, hpa := range added {
		if err := h.mem.ScrubPhys(hpa, geometry.PageSize2M); err != nil {
			t.rollback()
			return err
		}
	}
	vm.Pause()
	defer vm.Resume()
	if err := vm.commitLayout(ram, nil); err != nil {
		t.rollback()
		return err
	}
	vm.spec.MemoryBytes = max(vm.spec.MemoryBytes, vm.usableBytes())
	rep.ScrubbedBytes = uint64(len(added)) * geometry.PageSize2M
	rep.AdoptedNodes = t.adopted
	return nil
}

// PreviewResize reports, without mutating anything, what ResizeVM(name,
// targetBytes) would do: the dispatched action, the pages it moves, the
// nodes a shrink would drain and release, and the unowned nodes a grow
// would adopt. It is the planner's feasibility probe for both
// shrink-in-place and grow-in-place.
func (h *Hypervisor) PreviewResize(name string, targetBytes uint64) (*ResizePlan, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	vm, ok := h.vms[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrVMNotFound, name)
	}
	plan, err := h.planResize(vm, targetBytes)
	if err != nil {
		return nil, err
	}
	if plan.Action == ResizeInflate {
		plan.ReleasedNodes = vm.previewDrain(plan.Pages)
	}
	return &plan, nil
}

// previewDrain reports which guest nodes an inflate of n pages would release,
// in node-ID order: by vacate's rule, those on which the VM would hold no
// frame once the top n pages are gone (the baseline has no such nodes).
// Caller holds h.mu.
func (vm *VM) previewDrain(n int) []int {
	if released := vm.drained(vm.nodeIDs(), vm.ram[:len(vm.ram)-n]); len(released) > 0 {
		return released
	}
	return nil
}

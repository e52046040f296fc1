package core

// The resize facade: one entry point for every change to a running VM's
// memory footprint. Callers say what size they want — core.ResizeVM(name,
// targetBytes) — and the facade dispatches to the cheapest mechanism that
// reaches it:
//
//   - shrink            → balloon inflate (surrender pages, maybe whole
//                         nodes, to the admission pool);
//   - grow within the   → balloon deflate (restore surrendered pages,
//     ballooned holes     re-adopting nodes if the old ones were taken);
//   - grow beyond the   → memory hotplug (extend guest RAM with new 2 MiB
//     boot reservation    regions on freshly adopted subarray-group nodes).
//
// planResize is the one validator: every input ResizeVM refuses, it refuses
// before either leg starts, and the legs (balloon.go, hotplug.go) check
// nothing. PreviewResize answers the same dispatch question without
// mutating anything — which action, how many pages, which nodes would drain
// or be adopted. ResizeVM runs under the per-VM lifecycle latch, so a resize
// can never interleave with another resize or a live migration of the same
// VM.

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
	// ResizeDeflate grows within the ballooned holes by deflating.
	ResizeDeflate
	// ResizeHotplug grows beyond the boot-time reservation by hot-adding
	// memory (deflating any balloon remnant first).
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

	Pages         int    // 2 MiB pages the action moves (surrendered or restored+added)
	BalloonTarget uint64 // balloon size after the action (inflate/deflate legs)
	HotplugBytes  uint64 // bytes hot-added beyond the reservation (hotplug only)
	ReleasedNodes []int  // guest nodes a shrink would drain and release
	AdoptedNodes  []int  // unowned guest nodes a grow would adopt (in adoption order)
}

// ResizeReport summarizes one ResizeVM call: what the legs that ran did,
// in the order they ran.
type ResizeReport struct {
	VM       string
	Previous uint64 // usable guest RAM before the call
	Target   uint64
	Action   ResizeAction

	Pages         int    // 2 MiB pages moved: surrendered, or restored plus hot-added
	ScrubbedBytes uint64 // bytes zeroed: data-bearing pages before release, hot-added pages before mapping
	ReleasedNodes []int  // guest nodes drained and returned to the pool
	AdoptedNodes  []int  // guest nodes adopted to back a grow, deflate leg first
}

// usableBytes is the guest RAM the VM can touch: recorded size minus the
// ballooned-out pages. Caller holds h.mu.
func (vm *VM) usableBytes() uint64 {
	return vm.spec.MemoryBytes - uint64(vm.ballooned)*geometry.PageSize2M
}

// planResize is the dispatch and the validation ResizeVM and PreviewResize
// share: which mechanism reaches targetBytes, how many pages it moves and —
// from a dry run of the frame-sourcing walk — which unowned nodes a grow
// would adopt, so an infeasible grow is refused before either of its legs
// starts. Caller holds h.mu.
func (h *Hypervisor) planResize(vm *VM, targetBytes uint64) (ResizePlan, error) {
	name := vm.spec.Name
	if targetBytes == 0 || targetBytes%geometry.PageSize2M != 0 {
		return ResizePlan{}, fmt.Errorf("core: resize target %d must be a positive multiple of 2 MiB", targetBytes)
	}
	if vm.DirtyTracking() {
		return ResizePlan{}, fmt.Errorf("core: VM %q has dirty logging armed; a resize would lose protection state", name)
	}
	plan := ResizePlan{VM: name, Current: vm.usableBytes(), Target: targetBytes}
	size, balloon := vm.spec.MemoryBytes, vm.ballooned
	switch {
	case targetBytes == plan.Current:
		plan.Action = ResizeNone
		return plan, nil

	case targetBytes < plan.Current:
		if floor := balloonFloor(vm.spec); targetBytes < floor {
			return plan, fmt.Errorf("core: resize target %d below VM %q's floor %d", targetBytes, name, floor)
		}
		plan.Action = ResizeInflate
		plan.BalloonTarget = size - targetBytes
		plan.Pages = int(plan.BalloonTarget/geometry.PageSize2M) - balloon
		return plan, nil

	case targetBytes <= size:
		plan.Action = ResizeDeflate
		plan.BalloonTarget = size - targetBytes
		plan.Pages = balloon - int(plan.BalloonTarget/geometry.PageSize2M)

	case targetBytes > ROMBase:
		return plan, fmt.Errorf("core: resize would grow VM %q past the RAM window end %#x", name, ROMBase)

	default:
		// Hotplug extends the top of RAM and the balloon's model is that it
		// *is* the top of RAM, so any balloon remnant deflates first.
		plan.Action = ResizeHotplug
		plan.HotplugBytes = targetBytes - size
		plan.Pages = balloon + int(plan.HotplugBytes/geometry.PageSize2M)
	}
	t := h.sourceFrames(vm)
	t.dry = true
	err := t.take(alloc.Order2M, plan.Pages, false)
	plan.AdoptedNodes = t.adopted
	return plan, err
}

// ResizeVM resizes a running VM's usable memory to targetBytes, dispatching
// to balloon inflate (shrink), balloon deflate (grow within the ballooned
// holes), or memory hotplug (grow beyond the boot-time reservation; any
// balloon remnant is deflated first). It is the one way to change a running
// VM's memory footprint. The call holds the VM's lifecycle latch end to end
// — a concurrent resize or migration of the same VM fails with
// ErrResizeBusy — and rolls back to the previous state on partial failure.
//
// After the legs, the EPT tables follow the guest: dropping a VM's last node
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
	rep, err := h.resizeTo(vm, targetBytes)
	if err != nil {
		return nil, err
	}
	if err := h.relocateIfStranded(vm); err != nil {
		return rep, fmt.Errorf("core: resize of VM %q left EPT tables behind: %w", name, err)
	}
	return rep, nil
}

// resizeTo executes planResize's plan. Caller holds h.mu and the VM's
// lifecycle latch.
func (h *Hypervisor) resizeTo(vm *VM, targetBytes uint64) (*ResizeReport, error) {
	plan, err := h.planResize(vm, targetBytes)
	if err != nil {
		return nil, err
	}
	rep := &ResizeReport{VM: plan.VM, Previous: plan.Current, Target: targetBytes, Action: plan.Action}
	if plan.Action == ResizeNone {
		return rep, nil
	}
	prevBalloon := vm.ballooned
	if err := h.balloonTo(vm, int(plan.BalloonTarget/geometry.PageSize2M), rep); err != nil {
		return nil, err
	}
	if plan.HotplugBytes > 0 {
		if err := h.hotplugGrow(vm, plan.HotplugBytes, rep); err != nil {
			// Roll the deflate leg back so the caller sees the pre-resize
			// state; the re-inflate frees pages we just allocated, so it
			// cannot fail for capacity.
			if rerr := h.balloonTo(vm, prevBalloon, &ResizeReport{}); rerr != nil {
				return nil, fmt.Errorf("core: hotplug failed (%w) and balloon restore failed too: %v", err, rerr)
			}
			return nil, err
		}
	}
	return rep, nil
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
// frame once the victims are gone (the baseline has no such nodes). The
// victims are the top n resident pages (inflateVictims), so what stays is
// the layout below the lowest of them. Caller holds h.mu.
func (vm *VM) previewDrain(n int) []int {
	cut := len(vm.ram)
	for left := n; cut > 0 && left > 0; {
		if cut--; vm.ram[cut] != hpaNone {
			left--
		}
	}
	if released := vm.drained(vm.nodeIDs(), vm.ram[:cut]); len(released) > 0 {
		return released
	}
	return nil
}

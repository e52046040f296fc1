package core

// Guest-visible memory hotplug: growing a running VM beyond its boot-time
// exclusive reservation. Siloz ties every VM to whole subarray groups fixed
// at CreateVM, so without hotplug a tenant whose working set outgrows its
// reservation must be killed and re-admitted. HotplugVM removes that
// rigidity while preserving the isolation invariant at every step:
//
//   1. Obtain 2 MiB frames for the new range under the VM's placement
//      policy (frames.go), adopting unowned guest-reserved nodes as needed.
//   2. Scrub every frame before the guest can see it: a recycled page must
//      never leak a previous tenant's bytes, and the hot-added range must
//      read all-zero like real hot-added DIMM memory.
//   3. Pause the guest and commit the extended layout (layout.go): new 2 MiB
//      leaves at the top of guest RAM, then grow the VM's recorded size.
//      The pause gate means no guest access can observe a half-built range.
//
// On any partial failure the adoption, allocations, and mappings are rolled
// back completely: the VM keeps exactly its previous size and node set.
//
// The guest half lives in internal/guest: Kernel.HotplugBank invokes this
// path and then raises the kernel's usable-memory limit so the new frame
// range becomes allocatable and mappable (guest.Process.Map).

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/geometry"
)

// HotplugReport summarizes one HotplugVM call.
type HotplugReport struct {
	VM         string
	AddedBytes uint64 // bytes hot-added by this call
	AddedPages int    // 2 MiB pages hot-added
	BaseGPA    uint64 // guest physical base of the hot-added range

	NewMemoryBytes uint64 // VM RAM after the call (spec.MemoryBytes)
	AdoptedNodes   []int  // guest nodes adopted to back the growth
	ScrubbedBytes  uint64 // bytes zeroed before the guest could see them
}

// HotplugVM grows a running VM's RAM by addBytes beyond its current size,
// adopting additional subarray-group nodes as needed. The new range appears
// at the top of guest RAM, zero-filled. The call takes the VM's lifecycle
// latch (ErrResizeBusy while ballooning, resizing, or migrating) and is
// refused while the balloon is inflated — deflate first, so the balloon
// driver's the-balloon-is-the-top-of-RAM model stays intact.
func (h *Hypervisor) HotplugVM(name string, addBytes uint64) (rep *HotplugReport, err error) {
	err = h.resizeOp(name, "memory hotplug", func(vm *VM) (err error) {
		rep, err = h.hotplugGrow(vm, addBytes)
		return err
	})
	return rep, err
}

// hotplugGrow is HotplugVM's body, shared with the resize facade. Caller
// holds h.mu and the VM's lifecycle latch.
func (h *Hypervisor) hotplugGrow(vm *VM, addBytes uint64) (*HotplugReport, error) {
	name := vm.spec.Name
	if addBytes == 0 || addBytes%geometry.PageSize2M != 0 {
		return nil, fmt.Errorf("core: hotplug size %d must be a positive multiple of 2 MiB", addBytes)
	}
	if vm.ballooned > 0 {
		return nil, fmt.Errorf("core: VM %q has %d pages ballooned out; deflate before hot-plugging",
			name, vm.ballooned)
	}
	if vm.DirtyTracking() {
		return nil, fmt.Errorf("core: VM %q has dirty logging armed; hotplug would lose protection state", name)
	}
	if vm.spec.MemoryBytes+addBytes > ROMBase {
		return nil, fmt.Errorf("core: hotplug would grow VM %q past the RAM window end %#x", name, ROMBase)
	}

	n := int(addBytes / geometry.PageSize2M)
	t := h.sourceFrames(vm)
	if err := t.take(alloc.Order2M, n, false); err != nil {
		return nil, err
	}
	rep := &HotplugReport{
		VM: name, AddedBytes: addBytes, AddedPages: n,
		BaseGPA: vm.spec.MemoryBytes, AdoptedNodes: t.adopted,
	}
	// The adoption window is open: the frames (and any adopted nodes) now
	// belong to this VM's domain but are not yet scrubbed or mapped. An
	// attacker cannot reach them through any translation path — only the
	// registry transfer has happened.
	h.probe(ProbeHotplugAdopted, vm)
	// Scrub before mapping: the guest must only ever observe zeros in the
	// hot-added range, whatever the frames held before.
	for _, hpa := range t.frames {
		if err := h.mem.ScrubPhys(hpa, geometry.PageSize2M); err != nil {
			t.rollback()
			return nil, err
		}
		rep.ScrubbedBytes += geometry.PageSize2M
	}

	// The guest is paused across the EPT extension so no access can race
	// the edit (the same stop-the-world window the balloon takes).
	vm.Pause()
	defer vm.Resume()
	if err := vm.commitLayout(append(vm.ram, t.frames...), t.runs, nil); err != nil {
		t.rollback()
		return nil, err
	}
	// Commit: the range is fully mapped; grow the VM's recorded size.
	vm.spec.MemoryBytes += addBytes
	rep.NewMemoryBytes = vm.spec.MemoryBytes
	return rep, nil
}

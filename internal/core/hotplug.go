package core

// Guest-visible memory hotplug: growing a running VM beyond its boot-time
// exclusive reservation. Siloz ties every VM to whole subarray groups fixed
// at CreateVM, so without hotplug a tenant whose working set outgrows its
// reservation must be killed and re-admitted. ResizeVM's hotplug leg
// removes that rigidity while preserving the isolation invariant at every step:
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
// The guest half lives in internal/guest: Kernel.HotplugBank grows the VM
// through ResizeVM and then raises the kernel's usable-memory limit so the
// new frame range becomes allocatable and mappable (guest.Process.Map).

import (
	"repro/internal/alloc"
	"repro/internal/geometry"
)

// hotplugGrow is ResizeVM's hotplug leg: it grows vm's RAM by addBytes at
// the top of guest RAM, zero-filled. planResize has validated the size and
// the RAM window, and the balloon leg has deflated any remnant first. Caller
// holds h.mu and the VM's lifecycle latch.
func (h *Hypervisor) hotplugGrow(vm *VM, addBytes uint64, rep *ResizeReport) error {
	n := int(addBytes / geometry.PageSize2M)
	t := h.sourceFrames(vm)
	if err := t.take(alloc.Order2M, n, false); err != nil {
		return err
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
			return err
		}
	}

	// The guest is paused across the EPT extension so no access can race
	// the edit (the same stop-the-world window the balloon takes).
	vm.Pause()
	defer vm.Resume()
	if err := vm.commitLayout(append(vm.ram, t.frames...), nil); err != nil {
		t.rollback()
		return err
	}
	// Commit: the range is fully mapped; grow the VM's recorded size.
	vm.spec.MemoryBytes += addBytes
	rep.Pages += n
	rep.ScrubbedBytes += addBytes
	rep.AdoptedNodes = append(rep.AdoptedNodes, t.adopted...)
	return nil
}

package core

// Memory ballooning: returning part of a running VM's exclusive subarray
// group reservation to the host (virtio-balloon semantics over Siloz's
// isolation domains). The guest driver (internal/guest) inflates by pinning
// the top of guest RAM into its balloon and asking ResizeVM for the smaller
// size; this file implements the host side, ResizeVM's balloon leg:
//
//   1. Commit the layout with holes at the surrendered pages (layout.go):
//      the 2 MiB EPT leaves and IOMMU entries are unmapped. The guest can
//      no longer reach the ranges — any access would take an EPT violation.
//   2. Vacate the frames: scrub those that ever held guest data (the
//      touched-page ledger makes never-written pages free to release),
//      return them to their node's buddy allocator, and
//   3. when a whole subarray-group node drains — the allocator reports
//      zero used bytes — shrink the VM's control group off the node. The
//      group returns to the admission pool for the next reservation, and
//      the subarray-isolation invariant (§5.2-5.3) is preserved at every
//      step.
//
// Deflation reverses the flow: take frames under the VM's placement policy
// (frames.go), adopting fresh unowned nodes when what it still owns ran
// out, and commit the layout with the holes refilled.

import (
	"slices"

	"repro/internal/alloc"
	"repro/internal/geometry"
)

// balloonFloor is the smallest resident RAM a balloon may leave behind:
// the spec's MinMemoryBytes, and never less than one 2 MiB page (a VM with
// zero resident pages would own no guest nodes, breaking the audit's
// VM-has-a-domain invariant).
func balloonFloor(spec VMSpec) uint64 {
	return max(spec.MinMemoryBytes, geometry.PageSize2M)
}

// balloonTo is ResizeVM's balloon leg: it inflates or deflates vm's balloon
// to target pages. planResize has validated the target. Caller holds h.mu
// and the VM's lifecycle latch.
func (h *Hypervisor) balloonTo(vm *VM, target int, rep *ResizeReport) error {
	switch delta := target - vm.ballooned; {
	case delta > 0:
		return h.balloonInflate(vm, delta, rep)
	case delta < 0:
		return h.balloonDeflate(vm, -delta, rep)
	}
	return nil
}

// inflateVictims picks the RAM page indexes an inflate of n pages would
// surrender: the highest-GPA resident pages, matching the guest driver's
// top-down pinning. Caller holds h.mu.
func inflateVictims(vm *VM, n int) []int {
	victims := make([]int, 0, n)
	for p := len(vm.ram) - 1; p >= 0 && len(victims) < n; p-- {
		if vm.ram[p] != hpaNone {
			victims = append(victims, p)
		}
	}
	return victims
}

// balloonInflate surrenders n resident pages. Caller holds h.mu.
func (h *Hypervisor) balloonInflate(vm *VM, n int, rep *ResizeReport) error {
	victims := inflateVictims(vm, n)
	// The guest is paused across the unmap+free so no store can race the
	// EPT edit (the same stop-the-world window a real balloon's
	// MADV_DONTNEED takes, just coarser). Hammer and device DMA hold the
	// same gate, so no stale-translation activation can land mid-drain.
	vm.Pause()
	defer vm.Resume()

	// Commit the layout with holes where the victims were. After this the
	// ranges are unreachable architecturally — the frames still hold guest
	// data but only physical access remains.
	gone := vm.ramRuns(victims, nil)
	ram := slices.Clone(vm.ram)
	for _, p := range victims {
		ram[p] = hpaNone
	}
	if err := vm.commitLayout(ram, nil); err != nil {
		return err
	}
	vm.ballooned += n
	vm.dirtyMu.Lock()
	for _, p := range victims {
		vm.touched.del(p)
	}
	vm.dirtyMu.Unlock()
	rep.Pages += n
	h.probe(ProbeBalloonUnmapped, vm)

	var err error
	rep.ScrubbedBytes, rep.ReleasedNodes, err = h.vacate(vm, gone, vm.nodeIDs(), ProbeBalloonDrained)
	return err
}

// balloonDeflate restores n ballooned pages, adopting additional guest
// nodes when the VM's remaining reservation lacks capacity. Caller holds
// h.mu.
func (h *Hypervisor) balloonDeflate(vm *VM, n int, rep *ResizeReport) error {
	t := h.sourceFrames(vm)
	if err := t.take(alloc.Order2M, n, false); err != nil {
		return err
	}
	ram, k := slices.Clone(vm.ram), 0
	for p, hpa := range ram {
		if hpa == hpaNone && k < n {
			ram[p] = t.frames[k] // the lowest holes refill first
			k++
		}
	}
	vm.Pause()
	defer vm.Resume()
	if err := vm.commitLayout(ram, nil); err != nil {
		t.rollback()
		return err
	}
	vm.ballooned -= n
	rep.Pages += n
	rep.AdoptedNodes = append(rep.AdoptedNodes, t.adopted...)
	return nil
}

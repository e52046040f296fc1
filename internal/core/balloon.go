package core

// Memory ballooning: returning part of a running VM's exclusive subarray
// group reservation to the host (virtio-balloon semantics over Siloz's
// isolation domains). The guest driver (internal/guest) inflates by pinning
// guest frames into its balloon and telling the hypervisor which GPA ranges
// it surrendered; this file implements the host side:
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
	"fmt"
	"slices"

	"repro/internal/alloc"
	"repro/internal/geometry"
)

// BalloonReport summarizes one BalloonVM call.
type BalloonReport struct {
	VM       string
	Target   uint64 // balloon size after the call (bytes surrendered)
	Previous uint64 // balloon size before the call

	InflatedPages int    // 2 MiB pages surrendered by this call
	DeflatedPages int    // 2 MiB pages restored by this call
	ScrubbedBytes uint64 // data-bearing bytes zeroed before release
	ReleasedNodes []int  // guest nodes drained and returned to the pool
	AdoptedNodes  []int  // guest nodes adopted to satisfy a deflate
}

// balloonFloor is the smallest resident RAM a balloon may leave behind:
// the spec's MinMemoryBytes, and never less than one 2 MiB page (a VM with
// zero resident pages would own no guest nodes, breaking the audit's
// VM-has-a-domain invariant).
func balloonFloor(spec VMSpec) uint64 {
	floor := spec.MinMemoryBytes
	if floor < geometry.PageSize2M {
		floor = geometry.PageSize2M
	}
	return floor
}

// BalloonVM sets a VM's balloon to targetBytes — the amount of its RAM
// surrendered to the host. A larger target inflates (frees pages, possibly
// whole nodes); a smaller one deflates (restores pages, adopting nodes as
// needed). The guest must already have quiesced the covered ranges: the
// guest-side driver (guest.Balloon) pins the frames before calling here.
// The call takes the VM's lifecycle latch, so it is refused (ErrResizeBusy)
// while the VM is live-migrating, resizing, or hot-plugging memory.
func (h *Hypervisor) BalloonVM(name string, targetBytes uint64) (rep *BalloonReport, err error) {
	err = h.resizeOp(name, "balloon", func(vm *VM) (err error) {
		rep, err = h.balloonTo(vm, targetBytes)
		return err
	})
	return rep, err
}

// balloonTo is BalloonVM's body, shared with the resize facade. Caller holds
// h.mu and the VM's lifecycle latch.
func (h *Hypervisor) balloonTo(vm *VM, targetBytes uint64) (*BalloonReport, error) {
	name := vm.spec.Name
	if vm.DirtyTracking() {
		return nil, fmt.Errorf("core: VM %q has dirty logging armed; ballooning would lose protection state", name)
	}
	if targetBytes%geometry.PageSize2M != 0 {
		return nil, fmt.Errorf("core: balloon target %d must be a multiple of 2 MiB", targetBytes)
	}
	if max := vm.spec.MemoryBytes - balloonFloor(vm.spec); targetBytes > max {
		return nil, fmt.Errorf("core: balloon target %d exceeds VM %q's reclaimable %d bytes (floor %d)",
			targetBytes, name, max, balloonFloor(vm.spec))
	}

	rep := &BalloonReport{
		VM:       name,
		Target:   targetBytes,
		Previous: uint64(vm.ballooned) * geometry.PageSize2M,
	}
	targetPages := int(targetBytes / geometry.PageSize2M)
	delta := targetPages - vm.ballooned
	var err error
	switch {
	case delta > 0:
		err = h.balloonInflate(vm, delta, rep)
	case delta < 0:
		err = h.balloonDeflate(vm, -delta, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
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
func (h *Hypervisor) balloonInflate(vm *VM, n int, rep *BalloonReport) error {
	victims := inflateVictims(vm, n)
	if len(victims) < n {
		return fmt.Errorf("core: VM %q has only %d resident pages, inflate wants %d", vm.spec.Name, len(victims), n)
	}
	// The guest is paused across the unmap+free so no store can race the
	// EPT edit (the same stop-the-world window a real balloon's
	// MADV_DONTNEED takes, just coarser). Hammer and device DMA hold the
	// same gate, so no stale-translation activation can land mid-drain.
	vm.Pause()
	defer vm.Resume()

	// Commit the layout with holes where the victims were. After this the
	// ranges are unreachable architecturally — the frames still hold guest
	// data but only physical access remains.
	gone := vm.ramRuns(victims, vm.touchedPage)
	ram := slices.Clone(vm.ram)
	for _, p := range victims {
		ram[p] = hpaNone
	}
	if err := vm.commitLayout(ram, nil, nil); err != nil {
		return err
	}
	vm.ballooned += n
	vm.dirtyMu.Lock()
	for _, p := range victims {
		delete(vm.touched, p)
	}
	vm.dirtyMu.Unlock()
	rep.InflatedPages = n
	h.probe(ProbeBalloonUnmapped, vm)

	var err error
	rep.ScrubbedBytes, rep.ReleasedNodes, err = h.vacate(vm, gone, vm.nodeIDs(), ProbeBalloonDrained)
	return err
}

// balloonDeflate restores n ballooned pages, adopting additional guest
// nodes when the VM's remaining reservation lacks capacity. Caller holds
// h.mu.
func (h *Hypervisor) balloonDeflate(vm *VM, n int, rep *BalloonReport) error {
	n = min(n, vm.ballooned)
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
	if err := vm.commitLayout(ram, t.runs, nil); err != nil {
		t.rollback()
		return err
	}
	vm.ballooned -= n
	rep.DeflatedPages = n
	rep.AdoptedNodes = t.adopted
	return nil
}

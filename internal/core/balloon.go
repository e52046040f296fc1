package core

// Memory ballooning: returning part of a running VM's exclusive subarray
// group reservation to the host (virtio-balloon semantics over Siloz's
// isolation domains). The guest driver (internal/guest) inflates by pinning
// guest frames into its balloon and telling the hypervisor which GPA ranges
// it surrendered; this file implements the host side:
//
//   1. Unmap the surrendered 2 MiB EPT leaves. The guest can no longer
//      reach the ranges — any access would take an EPT violation.
//   2. Scrub the backing host pages that ever held guest data (the
//      touched-page ledger makes never-written pages free to release) and
//      return them to their node's buddy allocator.
//   3. When a whole subarray-group node drains — the allocator reports
//      zero used bytes — shrink the VM's control group off the node. The
//      group returns to the admission pool for the next reservation, and
//      the shrink is safe precisely because the node is empty: the VM's
//      domain loses only memory the guest already cannot touch, so the
//      subarray-isolation invariant (§5.2-5.3) is preserved at every step.
//
// Deflation reverses the flow: take frames under the VM's placement policy
// (frames.go), adopting fresh unowned nodes when what it still owns ran
// out, and remap the EPT leaves.

import (
	"fmt"
	"sort"

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
		Previous: uint64(len(vm.ballooned)) * geometry.PageSize2M,
	}
	targetPages := int(targetBytes / geometry.PageSize2M)
	delta := targetPages - len(vm.ballooned)
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
	if delta != 0 {
		h.logf("balloon VM %q: %d -> %d MiB surrendered (+%d/-%d pages, %d bytes scrubbed, released nodes %v, adopted %v)",
			name, rep.Previous>>20, rep.Target>>20, rep.InflatedPages, rep.DeflatedPages,
			rep.ScrubbedBytes, rep.ReleasedNodes, rep.AdoptedNodes)
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

	// Phase 1: unmap every surrendered leaf and drop the device IOMMU
	// entries. After this the ranges are unreachable architecturally —
	// the frames still hold guest data but only physical access remains.
	type drainPage struct {
		hpa         uint64
		node        int
		dataBearing bool
	}
	drains := make([]drainPage, 0, len(victims))
	for _, p := range victims {
		gpa := uint64(p) * geometry.PageSize2M
		if err := vm.tables.Unmap(gpa); err != nil {
			return fmt.Errorf("core: unmapping ballooned gpa %#x of VM %q: %w", gpa, vm.spec.Name, err)
		}
		hpa := vm.ram[p]
		vm.dirtyMu.Lock()
		_, dataBearing := vm.touched[p]
		delete(vm.touched, p)
		vm.dirtyMu.Unlock()
		node := vm.ramNode[hpa]
		delete(vm.ramNode, hpa)
		drains = append(drains, drainPage{hpa: hpa, node: node, dataBearing: dataBearing})
		vm.ram[p] = hpaNone
		if vm.ballooned == nil {
			vm.ballooned = make(map[int]struct{})
		}
		vm.ballooned[p] = struct{}{}
		rep.InflatedPages++
	}
	vm.InvalidateTLB()
	if err := vm.syncDeviceTables(); err != nil {
		return err
	}
	h.probe(ProbeBalloonUnmapped, vm)

	// Phase 2: scrub the data-bearing frames, then return them to their
	// nodes' buddy allocators. Scrub strictly precedes free: from the
	// instant a frame is back in the pool it may be handed to any tenant.
	freed := make(map[int][]uint64) // node ID -> freed HPAs
	for _, d := range drains {
		if d.dataBearing {
			if err := h.mem.ScrubPhys(d.hpa, geometry.PageSize2M); err != nil {
				return err
			}
			rep.ScrubbedBytes += geometry.PageSize2M
		}
		freed[d.node] = append(freed[d.node], d.hpa)
	}
	for node, pages := range freed {
		a, err := h.Allocator(node)
		if err != nil {
			return err
		}
		if err := a.FreePages(alloc.Order2M, pages); err != nil {
			return err
		}
	}
	h.probe(ProbeBalloonDrained, vm)

	// Phase 3: drained whole nodes leave the control group and return to
	// the admission pool.
	if h.mode == ModeSiloz {
		released, err := h.releaseDrainedNodes(vm)
		if err != nil {
			return err
		}
		rep.ReleasedNodes = released
	}
	return nil
}

// releaseDrainedNodes shrinks the VM's control group off every guest node
// whose allocator holds no allocations — the partial-release step that
// returns whole subarray groups to the admission pool. Caller holds h.mu.
func (h *Hypervisor) releaseDrainedNodes(vm *VM) ([]int, error) {
	var drained []int
	for _, node := range vm.nodes {
		a, err := h.Allocator(node.ID)
		if err != nil {
			return nil, err
		}
		if a.UsedBytes() == 0 {
			drained = append(drained, node.ID)
		}
	}
	if len(drained) == 0 {
		return nil, nil
	}
	sort.Ints(drained)
	if err := h.reg.Shrink(vm.cgroup.Name, drained); err != nil {
		return nil, err
	}
	vm.nodes = vm.cgroup.Nodes()
	return drained, nil
}

// balloonDeflate restores n ballooned pages, adopting additional guest
// nodes when the VM's remaining reservation lacks capacity. Caller holds
// h.mu.
func (h *Hypervisor) balloonDeflate(vm *VM, n int, rep *BalloonReport) error {
	restore := make([]int, 0, len(vm.ballooned))
	for p := range vm.ballooned {
		restore = append(restore, p)
	}
	sort.Ints(restore)
	if n > len(restore) {
		n = len(restore)
	}
	restore = restore[:n]

	t := h.sourceFrames(vm)
	if err := t.take(alloc.Order2M, n, false); err != nil {
		return err
	}
	vm.Pause()
	defer vm.Resume()
	// Unmap retained the intermediate tables, so the remap allocates nothing.
	if err := vm.install(restore, &t); err != nil {
		return err
	}
	for _, p := range restore {
		delete(vm.ballooned, p)
	}
	rep.DeflatedPages = n
	rep.AdoptedNodes = t.adopted
	return nil
}

package core

// Layout commit and vacate: the two ownership transfers every lifecycle
// operation is made of. Siloz's guarantee (§5.2-5.4) holds only if a frame
// becomes guest-reachable after it is inside the VM's domain, and leaves the
// domain after it is unreachable, scrubbed and freed. frames.go decides where
// frames come from; this file is the one place they become visible
// (commitLayout) and the one place they leave (vacate).
//
// A layout is the HPA of each resident 2 MiB RAM page in GPA order: a prefix
// of the GPA space whose length is the VM's usable size (the balloon is the
// spec's size beyond it). Every hierarchy that maps it — the EPT, each
// passthrough device's IOMMU table — keeps a view: the layout its leaves
// currently hold.

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/alloc"
	"repro/internal/ept"
	"repro/internal/geometry"
)

// hpaNone marks an unmapped slot in syncLeaves' diff: a view slot the layout
// grew into, or a slot past the end of the layout being synced.
const hpaNone = ^uint64(0)

// syncLeaves brings one hierarchy's 2 MiB RAM leaves from the layout *view
// records to ram, editing exactly the slots that differ: consecutive slots
// needing the same edit (unmap, map, remap) go to the tables as one run. It is
// the only code that edits RAM leaves, the EPT's and the IOMMU's alike. The
// fault seam is consulted once per leaf and a run ends before a leaf it fails;
// the view advances by the leaves the tables report stored, so after a failure
// part-way a sync to the previous layout undoes exactly what was done.
func (vm *VM) syncLeaves(t *ept.Tables, view *[]uint64, ram []uint64) error {
	v := slices.Grow(*view, max(len(ram)-len(*view), 0))
	for len(v) < len(ram) {
		v = append(v, hpaNone) // the layout grew: new slots start unmapped
	}
	*view = v
	want := func(i int) uint64 {
		if i < len(ram) {
			return ram[i]
		}
		return hpaNone
	}
	for i := 0; i < len(v); {
		old, cur := v[i], want(i)
		if old == cur {
			i++
			continue
		}
		end := i + 1
		for end < len(v) && v[end] != want(end) &&
			(v[end] == hpaNone) == (old == hpaNone) && (want(end) == hpaNone) == (cur == hpaNone) {
			end++
		}
		n, fault := vm.hv.injectedLeafFault(end - i)
		gpa := uint64(i) * geometry.PageSize2M
		var err error
		switch {
		case cur == hpaNone:
			n, err = t.UnmapRun(gpa, n, geometry.PageSize2M)
		case old == hpaNone:
			n, err = t.MapRun(gpa, ram[i:i+n], geometry.PageSize2M, true) // an unmap kept the intermediate tables: a refill allocates nothing
		default:
			n, err = t.RemapRun(gpa, ram[i:i+n], geometry.PageSize2M, true) // writable: a migration's remap also disarms the leaf's dirty logging
		}
		for ; n > 0; i, n = i+1, n-1 {
			v[i] = want(i)
		}
		if err == nil {
			err = fault
		}
		if err != nil {
			return fmt.Errorf("2 MiB leaf at %#x: %w", uint64(i)*geometry.PageSize2M, err)
		}
	}
	*view = v[:len(ram)]
	return nil
}

// syncTables syncs the EPT and then every attached device's IOMMU table to
// ram, stopping at the first failure.
func (vm *VM) syncTables(ram []uint64) error {
	if err := vm.syncLeaves(vm.tables, &vm.leaves, ram); err != nil {
		return fmt.Errorf("core: VM %q EPT %w", vm.spec.Name, err)
	}
	vm.devMu.Lock()
	devices := append([]*Device(nil), vm.devices...)
	vm.devMu.Unlock()
	for _, d := range devices {
		if d.tables == nil {
			continue // detached since the snapshot
		}
		if err := vm.syncLeaves(d.tables, &d.view, ram); err != nil {
			return fmt.Errorf("core: device %q of VM %q IOMMU %w", d.name, vm.spec.Name, err)
		}
	}
	return nil
}

// regionMove pairs a guest-placed region with the pages it is moving to —
// until the commit swaps them in, after which run names the pages it left.
type regionMove struct {
	info *regionInfo
	run  frameRun
}

// remapRegions points every moved region's 4 KiB leaves at its move's run
// and swaps the two runs, so a second call moves the regions back. It is all
// or nothing: on failure the leaves already rewritten are restored.
func (vm *VM) remapRegions(moves []regionMove) error {
	for m := range moves {
		mv := &moves[m]
		writable := mv.info.Type != RegionROM
		n, fault := vm.hv.injectedLeafFault(len(mv.run.pages))
		n, err := vm.tables.RemapRun(mv.info.gpa, mv.run.pages[:n], geometry.PageSize4K, writable)
		if err == nil {
			err = fault
		}
		if err != nil {
			_, _ = vm.tables.RemapRun(mv.info.gpa, mv.info.pages[:n], geometry.PageSize4K, writable)
			_ = vm.remapRegions(moves[:m])
			return fmt.Errorf("core: VM %q region %q: %w", vm.spec.Name, mv.info.Name, err)
		}
		mv.info.frameRun, mv.run = mv.run, mv.info.frameRun
	}
	return nil
}

// commitLayout makes ram the VM's RAM layout, in the one order every
// lifecycle operation uses: EPT leaves (a migration's region leaves, then the
// RAM leaves), then every device's IOMMU table, then vm.ram is published,
// then the TLB is flushed. No ledger of which node supplied which frame is
// kept: a frame's node is the topology's answer for its address (nodeOf). On
// any failure every hierarchy is synced back to the old layout and the caller
// is where it began (and still owns the frames entering ram). Caller holds
// the lifecycle latch and, once the guest runs, the vCPU gate exclusively —
// which also excludes DMA.
func (vm *VM) commitLayout(ram []uint64, moves []regionMove) error {
	old := vm.ram
	if err := vm.remapRegions(moves); err != nil {
		return err
	}
	if err := vm.syncTables(ram); err != nil {
		_ = vm.syncTables(old)
		_ = vm.remapRegions(moves)
		vm.InvalidateTLB() // an unpaused translator may have cached a leaf
		return err
	}
	vm.ram = ram
	vm.InvalidateTLB()
	return nil
}

// ramRuns lists the frames behind the RAM pages from lo to the top, highest
// first, as one-frame runs for vacate. The runs alias the current layout's
// array, which a commit never edits.
func (vm *VM) ramRuns(lo int) []frameRun {
	runs := make([]frameRun, 0, len(vm.ram)-lo)
	for p := len(vm.ram) - 1; p >= lo; p-- {
		hpa := vm.ram[p : p+1]
		runs = append(runs, frameRun{node: vm.hv.nodeOf(hpa[0]), order: alloc.Order2M, pages: hpa})
	}
	return runs
}

// vacate is the one way frames leave a VM. They have already left the layout
// (commitLayout) or never entered it (a rollback), so nothing translates to
// them: every one is scrubbed, then freed to its node — scrub strictly first:
// a frame back in the pool may be handed to any tenant. Whether the guest
// ever stored to a frame does not matter: DRAM writes by itself too (a flip
// from the guest's Hammer or its device's HammerDMA), and a frame with no
// live row costs one census check. Then the one shrink rule applies to nodes,
// the nodes whose reservation the operation may end (a shrink: all the VM's;
// a migration: its sources; a rollback: the ones it adopted): a node leaves
// the control group iff the VM holds no frame on it — on a node only its
// owner allocates from, iff the allocator shows zero used bytes — so the
// domain loses only memory the guest cannot touch; it is scrubbed whole
// (scrubNode) before it leaves. nodes is consumed: the released ones come
// back in its storage. drained, if set, is the lifecycle probe to fire
// between free and shrink. Errors do not stop the walk; they are joined.
func (h *Hypervisor) vacate(vm *VM, runs []frameRun, nodes []int, drained EventKind) (scrubbed uint64, released []int, err error) {
	for _, r := range runs {
		a, aerr := h.Allocator(r.node)
		err = errors.Join(err, aerr)
		bytes := alloc.OrderBytes(r.order)
		for _, pa := range r.pages {
			err = errors.Join(err, h.mem.ScrubPhys(pa, int(bytes)))
			scrubbed += bytes
			if a != nil {
				err = errors.Join(err, a.Free(pa, r.order))
			}
		}
	}
	if drained != "" {
		h.probe(Event{Kind: drained, VM: vm})
	}
	if h.mode == ModeSiloz {
		released = vm.drained(nodes, vm.ram)
	}
	if len(released) == 0 {
		return scrubbed, nil, err
	}
	for _, id := range released {
		err = errors.Join(err, h.scrubNode(id))
	}
	err = errors.Join(err, h.reg.Shrink(vm.cgroup.Name, released))
	vm.nodes = vm.cgroup.Nodes()
	return scrubbed, released, err
}

// scrubNode zeroes every byte of a guest-reserved node that is leaving a
// domain for the pool. Its frames are all free, yet the ones the VM never
// held may hold its flips: a hammered row's flips stay inside its subarray
// group, and a node is made of whole groups, free frames included. A region
// with no live row costs one census check, so a clean node is cheap.
func (h *Hypervisor) scrubNode(id int) error {
	n, err := h.topo.Node(id)
	if err != nil {
		return err
	}
	for _, r := range n.Ranges {
		err = errors.Join(err, h.mem.ScrubPhys(r.Start, int(r.End-r.Start)))
	}
	return err
}

// drained filters ids, in place and keeping their order, down to the nodes
// on which the VM holds no frame of ram and no region page: one pass over
// ram, each frame's node read from the topology's range table.
func (vm *VM) drained(ids []int, ram []uint64) []int {
	drop := func(id int) {
		if i := slices.Index(ids, id); i >= 0 {
			ids = slices.Delete(ids, i, i+1)
		}
	}
	for _, ri := range vm.regions {
		drop(ri.node)
	}
	for _, hpa := range ram {
		if len(ids) == 0 {
			break
		}
		drop(vm.hv.nodeOf(hpa))
	}
	return ids
}

package core

import (
	"fmt"

	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/numa"
)

// AuditIsolation verifies the hard safety invariants of the domain model at
// one instant, returning human-readable violations (empty = isolated). It
// is the one isolation invariant set: the migration engine runs it between
// every pre-copy round (through migrate.AuditIsolation, which reports the
// first violation as an error) so no operation passes through a state that
// breaks it, the fleet audit runs it per host, and Audit layers the
// accounting checks on top. It walks VMs and their pages only — no
// allocator or offlined-range scans — so it is cheap enough to run per
// round.
//
// Checked invariants:
//
//  1. Every VM's nodes are guest-reserved, owned in the registry by that
//     VM's control group, and in no other VM's domain; under Siloz every VM
//     owns at least one.
//  2. No host frame backs two VMs' RAM (a strictly finer check than node
//     exclusivity: it catches a frame handed out twice within one node or
//     leaked across a lifecycle operation), and under Siloz every RAM page
//     lies inside its VM's domain.
//  3. Under Siloz, EPT and IOMMU table pages live in the pool of the VM's
//     *current* EPT socket — the guard-protected EPT row-group block under
//     guard-row protection, that socket's host-reserved memory otherwise
//     (§5.4). The tables follow the guest across cross-socket migrations,
//     so a VM whose tables were left behind on the source socket fails.
//  4. Mediated pages lie in host-reserved nodes, outside every guest
//     domain (§5.1).
func (h *Hypervisor) AuditIsolation() []string {
	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	siloz := h.mode == ModeSiloz
	vms := h.VMs()
	pages, nodes := 0, 0
	for _, vm := range vms {
		pages += len(vm.ram)
		nodes += len(vm.Nodes())
	}
	// Sized up front: growing them from empty was most of the audit's map time.
	seenPages := make(map[uint64]string, pages)
	seenNodes := make(map[int]string, nodes)
	for _, vm := range vms {
		// 1: node kind, registry ownership and exclusivity.
		cgroup := "vm:" + vm.Name()
		if siloz && len(vm.Nodes()) == 0 {
			report("VM %q owns no guest nodes", vm.Name())
		}
		for _, n := range vm.Nodes() {
			if n.Kind != numa.GuestReserved {
				report("VM %q owns non-guest node %d (%s)", vm.Name(), n.ID, n.Kind)
			}
			if owner, ok := h.Registry().OwnerOf(n.ID); !ok || owner != cgroup {
				report("node %d in VM %q's domain but owned by %q", n.ID, vm.Name(), owner)
			}
			if owner, dup := seenNodes[n.ID]; dup {
				report("node %d owned by both %q and %q", n.ID, owner, vm.Name())
			}
			seenNodes[n.ID] = vm.Name()
		}
		// 2: frame exclusivity and domain placement.
		for _, hpa := range vm.RAMPages() {
			if owner, dup := seenPages[hpa]; dup {
				report("RAM page %#x owned by both %q and %q", hpa, owner, vm.Name())
			}
			seenPages[hpa] = vm.Name()
			if siloz && !vm.InDomain(hpa) {
				report("VM %q RAM page %#x outside its domain", vm.Name(), hpa)
			}
		}
		// 3: table pages in the current EPT socket's pool.
		if siloz {
			bad = append(bad, h.auditTablePages(vm)...)
		}
		// 4: mediated pages.
		for _, pa := range vm.MediatedPages() {
			if node, ok := h.topo.NodeOf(pa); !ok || node.Kind != numa.HostReserved {
				report("VM %q mediated page %#x not host-reserved", vm.Name(), pa)
			}
		}
	}
	return bad
}

// auditTablePages checks invariant 3 for one VM.
func (h *Hypervisor) auditTablePages(vm *VM) (bad []string) {
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	socket := vm.EPTSocket()
	if vm.Tables().Mode() != ept.GuardRows {
		for _, pa := range vm.Tables().Pages() {
			if n, ok := h.topo.NodeOf(pa); !ok || n.Kind != numa.HostReserved || n.Socket != socket {
				report("VM %q EPT page %#x not in socket %d's host-reserved memory", vm.Name(), pa, socket)
			}
		}
		return bad
	}
	eptNode, err := h.EPTNode(socket)
	if err != nil {
		report("VM %q: %v", vm.Name(), err)
		return bad
	}
	for _, pa := range vm.Tables().Pages() {
		if !eptNode.Contains(pa) {
			report("VM %q EPT page %#x outside socket %d's guard-protected EPT block", vm.Name(), pa, socket)
		}
	}
	return bad
}

// Audit walks the booted system and verifies every invariant the Siloz
// design depends on, returning human-readable violations (empty = healthy).
// It is the reproduction's fsck: tests and tools run it after stressing the
// hypervisor to catch any drift between policy and state. On top of the
// isolation set (AuditIsolation) it checks the accounting:
//
//  5. Offlined (guard) ranges belong to no logical node (§5.4, §6).
//  6. Per-node allocator accounting is conserved, and guest-node usage
//     matches exactly what the owning VM holds there.
func (h *Hypervisor) Audit() []string {
	bad := h.AuditIsolation()
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	// 5: offlined ranges owned by no node.
	for _, r := range h.OfflinedRanges() {
		for pa := r.Start; pa < r.End; pa += 1 << 20 {
			if n, ok := h.topo.NodeOf(pa); ok {
				report("offlined pa %#x owned by node %d", pa, n.ID)
				break
			}
		}
	}

	// 6: allocator conservation, and guest-node usage matching exactly
	// what the owning VM holds there.
	expected := make(map[int]uint64)
	for _, vm := range h.VMs() {
		for _, nodeID := range vm.ramNode {
			expected[nodeID] += uint64(geometry.PageSize2M)
		}
		for _, ri := range vm.regions {
			if ri.Type.Unmediated() {
				expected[ri.node] += uint64(len(ri.pages)) * geometry.PageSize4K
			}
		}
	}
	for _, n := range h.topo.Nodes() {
		a, err := h.Allocator(n.ID)
		if err != nil {
			report("node %d missing allocator: %v", n.ID, err)
			continue
		}
		if a.FreeBytes()+a.UsedBytes() != a.TotalBytes() {
			report("node %d accounting broken: free %d + used %d != total %d",
				n.ID, a.FreeBytes(), a.UsedBytes(), a.TotalBytes())
		}
		if n.Kind == numa.GuestReserved && h.mode == ModeSiloz {
			if a.UsedBytes() != expected[n.ID] {
				report("guest node %d allocator reports %d used bytes but VMs hold %d",
					n.ID, a.UsedBytes(), expected[n.ID])
			}
		}
	}
	return bad
}

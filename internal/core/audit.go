package core

import (
	"fmt"
	"slices"

	"repro/internal/alloc"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/numa"
)

// Audit walks the booted system and verifies every invariant the Siloz
// design depends on, returning human-readable violations (empty = healthy).
// It is the one invariant set, and it holds at every point an audit runs:
// between operations (the reproduction's fsck: `siloz audit`, and tests after
// stressing the hypervisor), at every pre-copy round boundary (the migration
// engine runs it through migrate.AuditIsolation, which reports the first
// violation as an error), and inside the cross-host move windows (the fleet
// audit runs it per host). A migration's destination frames are the VM's
// from the moment they are taken: until the commit or the rollback they are
// its in-flight frames, and check 6 counts them as held. Call it between
// operations or from the goroutine running one (a round or move probe); it
// reads VM state without the lifecycle latch. On the core test config with
// three VMs one call costs about 4 µs on a 2-vCPU Xeon (BenchmarkAudit):
// cheap enough for every round.
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
//  5. Offlined (guard) ranges overlap no logical node's ranges (§5.4, §6).
//  6. Per-node allocator accounting is conserved, and guest-node usage
//     matches exactly what the owning VM holds there, in-flight frames
//     included.
func (h *Hypervisor) Audit() []string {
	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	siloz := h.mode == ModeSiloz
	vms := h.VMs()
	nodes := h.topo.Nodes()
	// By node ID: 1 + the index of the VM whose domain has it (check 1; 0
	// while none), and the bytes the VMs hold there (check 6).
	tally := make([]struct {
		holder int
		held   uint64
	}, len(nodes))
	// 2's marks: one bit per 2 MiB frame of host memory.
	frames := uint64(h.mem.Geometry().TotalBytes()) / geometry.PageSize2M
	seenFrames := make([]uint64, (frames+63)/64)
	for vi, vm := range vms {
		// 1: node kind, registry ownership and exclusivity.
		cgroup := "vm:" + vm.Name()
		if siloz && len(vm.nodes) == 0 {
			report("VM %q owns no guest nodes", vm.Name())
		}
		for _, n := range vm.nodes {
			if n.Kind != numa.GuestReserved {
				report("VM %q owns non-guest node %d (%s)", vm.Name(), n.ID, n.Kind)
			}
			if owner, ok := h.reg.OwnerOf(n.ID); !ok || owner != cgroup {
				report("node %d in VM %q's domain but owned by %q", n.ID, vm.Name(), owner)
			}
			if prev := tally[n.ID].holder; prev != 0 {
				report("node %d owned by both %q and %q", n.ID, vms[prev-1].Name(), vm.Name())
			}
			tally[n.ID].holder = vi + 1
		}
		// 2 and 6 in one pass over the RAM: no frame backs two VMs, and under
		// Siloz each lies in a node of the VM's domain, charged to that node.
		for j, hpa := range vm.ram {
			if f := hpa / geometry.PageSize2M; f >= frames {
				report("VM %q RAM page %#x beyond host memory", vm.Name(), hpa)
			} else if seenFrames[f/64]&(1<<(f%64)) != 0 {
				report("RAM page %#x owned by both %q and %q", hpa, prevHolder(vms, vi, j), vm.Name())
			} else {
				seenFrames[f/64] |= 1 << (f % 64)
			}
			if !siloz {
				continue
			}
			if i := slices.IndexFunc(vm.nodes, func(n *numa.Node) bool { return n.Contains(hpa) }); i >= 0 {
				tally[vm.nodes[i].ID].held += geometry.PageSize2M
			} else {
				report("VM %q RAM page %#x outside its domain", vm.Name(), hpa)
			}
		}
		// 6, the rest of this VM's share: its unmediated region pages, and
		// the frames an open migration has taken for it.
		for _, ri := range vm.regions {
			if ri.Type.Unmediated() {
				tally[ri.node].held += uint64(len(ri.pages)) * geometry.PageSize4K
			}
		}
		for _, r := range vm.inflight {
			tally[r.node].held += uint64(len(r.pages)) * alloc.OrderBytes(r.order)
		}
		// 3: table pages in the current EPT socket's pool.
		if siloz {
			socket := vm.eptSocket
			if vm.tables.Mode() != ept.GuardRows {
				for _, pa := range vm.tables.Pages() {
					if n, ok := h.topo.NodeOf(pa); !ok || n.Kind != numa.HostReserved || n.Socket != socket {
						report("VM %q EPT page %#x not in socket %d's host-reserved memory", vm.Name(), pa, socket)
					}
				}
			} else if eptNode, err := h.EPTNode(socket); err != nil {
				report("VM %q: %v", vm.Name(), err)
			} else {
				for _, pa := range vm.tables.Pages() {
					if !eptNode.Contains(pa) {
						report("VM %q EPT page %#x outside socket %d's guard-protected EPT block", vm.Name(), pa, socket)
					}
				}
			}
		}
		// 4: mediated pages.
		for _, pa := range vm.mediated {
			if node, ok := h.topo.NodeOf(pa); !ok || node.Kind != numa.HostReserved {
				report("VM %q mediated page %#x not host-reserved", vm.Name(), pa)
			}
		}
	}

	for _, n := range nodes {
		// 5: offlined ranges owned by no node — any overlap, however small
		// or unaligned the offlined range.
		for _, r := range n.Ranges {
			for _, off := range h.offlined {
				if lo := max(r.Start, off.Start); lo < min(r.End, off.End) {
					report("offlined pa %#x owned by node %d", lo, n.ID)
				}
			}
		}
		// 6: allocator conservation, and guest-node usage matching exactly
		// what the owning VM holds there.
		a, err := h.Allocator(n.ID)
		if err != nil {
			report("node %d missing allocator: %v", n.ID, err)
			continue
		}
		if a.FreeBytes()+a.UsedBytes() != a.TotalBytes() {
			report("node %d accounting broken: free %d + used %d != total %d",
				n.ID, a.FreeBytes(), a.UsedBytes(), a.TotalBytes())
		}
		if n.Kind == numa.GuestReserved && siloz {
			if a.UsedBytes() != tally[n.ID].held {
				report("guest node %d allocator reports %d used bytes but VMs hold %d",
					n.ID, a.UsedBytes(), tally[n.ID].held)
			}
		}
	}
	return bad
}

// prevHolder names the VM that held vms[i].ram[j]'s frame last before it, in
// the audit's walk order: earlier in the same VM's RAM, else the nearest
// earlier VM. Check 2 calls it only once it has found the frame taken.
func prevHolder(vms []*VM, i, j int) string {
	hpa := vms[i].ram[j]
	if slices.Contains(vms[i].ram[:j], hpa) {
		return vms[i].Name()
	}
	for k := i - 1; k >= 0; k-- {
		if slices.Contains(vms[k].ram, hpa) {
			return vms[k].Name()
		}
	}
	return ""
}

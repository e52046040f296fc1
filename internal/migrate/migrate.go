// Package migrate is the policy layer above the hypervisor's live pre-copy
// engine (core.MigrateVM): it decides *which* VM moves *where*, and proves
// the isolation invariant holds while pages are in flight.
//
// Siloz trades memory for isolation: a VM occupies whole subarray groups,
// exclusively (§5.2-5.3). The cost surfaces as fragmentation — a socket can
// refuse a VM because all its groups are owned, while groups sit free on the
// other socket (§8.1's internal-fragmentation waste is unfixable by design;
// *cross-socket imbalance* is not). The Planner reads per-node occupancy
// from the registry and the buddy allocators and emits a migration Plan that
// vacates enough of the target socket for a pending reservation; the Engine
// executes plans move by move, auditing after every pre-copy round that no
// two tenants' domains ever overlap and that EPT pages never leave their
// guard-protected block.
package migrate

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/numa"
)

// NodeOccupancy is one guest-reserved node's reservation and free-space
// state — the planner's raw input, also useful for operator dashboards.
type NodeOccupancy struct {
	Node             *numa.Node
	Owner            string // owning cgroup, "" if reservable
	FreeBytes        uint64
	TotalBytes       uint64
	FreePages2M      int // huge pages available (what a guest reservation needs)
	LargestFreeOrder int // -1 when the node is exhausted
}

// Move migrates one VM onto the given destination nodes.
type Move struct {
	VM        string
	DestNodes []int
}

// Shrink balloons one VM in place: it is resized down to Target usable
// bytes, draining (and releasing) the subarray-group nodes the surrendered
// pages occupied. Shrink-in-place beats a pre-copy move when the deficit
// fits: no pages cross the machine, no stop-and-copy downtime.
type Shrink struct {
	VM     string
	Target uint64 // usable bytes to resize to (the VM's MinMemoryBytes)
}

// Plan is an ordered rebalancing program: in-place shrinks first (cheap),
// then migrations (expensive). An empty plan means the goal is already
// satisfiable without either.
type Plan struct {
	Shrinks []Shrink
	Moves   []Move
}

// Planner derives migration plans from node occupancy.
type Planner struct {
	h *core.Hypervisor
}

// NewPlanner builds a planner over a booted hypervisor.
func NewPlanner(h *core.Hypervisor) *Planner { return &Planner{h: h} }

// Visit calls fn with every guest-reserved node's owner and free-space
// state, in node-ID order, and allocates nothing: it reads the topology's
// node slice in place. Each reading is taken when fn is called, so an op
// running meanwhile makes the sequence stale, never torn per node.
func (p *Planner) Visit(fn func(NodeOccupancy)) error {
	for _, n := range p.h.Topology().Nodes() {
		if n.Kind != numa.GuestReserved {
			continue
		}
		a, err := p.h.Allocator(n.ID)
		if err != nil {
			return err
		}
		owner, _ := p.h.Registry().OwnerOf(n.ID)
		free := a.FreeSpace(alloc.Order2M)
		fn(NodeOccupancy{
			Node:             n,
			Owner:            owner,
			FreeBytes:        free.Bytes,
			TotalBytes:       a.TotalBytes(),
			FreePages2M:      free.Pages,
			LargestFreeOrder: free.LargestOrder,
		})
	}
	return nil
}

// Occupancy collects Visit's readings, in node-ID order, into one slice of
// exactly their number.
func (p *Planner) Occupancy() ([]NodeOccupancy, error) {
	n := 0
	for _, node := range p.h.Topology().Nodes() {
		if node.Kind == numa.GuestReserved {
			n++
		}
	}
	out := make([]NodeOccupancy, 0, n)
	if err := p.Visit(func(o NodeOccupancy) { out = append(out, o) }); err != nil {
		return nil, err
	}
	return out, nil
}

// GuestBytes is the capacity a spec demands from guest-reserved nodes: RAM
// plus every unmediated region (mirrors the admission check). The planner
// sizes victims and fleet placement sizes bin-packing requests with it.
func GuestBytes(spec core.VMSpec) uint64 {
	b := spec.MemoryBytes
	for _, r := range spec.Regions {
		if r.Type.Unmediated() {
			b += r.Bytes
		}
	}
	return b
}

// hugePageCap is the bytes a node can contribute to a reservation today.
func hugePageCap(o NodeOccupancy) uint64 {
	return uint64(o.FreePages2M) * geometry.PageSize2M
}

// vacatedHugeCap is the node's huge-page capacity once the VM's pages leave
// it: current free huge pages plus every VM RAM page it hosts. (Freed 4 KiB
// region pages coalesce too, but are not counted — conservative.)
func vacatedHugeCap(vm *core.VM, o NodeOccupancy) uint64 {
	bytes := hugePageCap(o)
	for _, hpa := range vm.RAMPages() {
		if o.Node.Contains(hpa) {
			bytes += geometry.PageSize2M
		}
	}
	return bytes
}

// PlanAdmission produces the moves that make room for a pending VMSpec on
// its home socket: pick the cheapest victims wholly resident there and
// relocate them onto free guest nodes of other sockets. Returns an empty
// plan if the spec already fits, an error if no rebalancing can make it fit.
func (p *Planner) PlanAdmission(spec core.VMSpec) (*Plan, error) {
	h := p.h
	if h.Mode() != core.ModeSiloz {
		return nil, fmt.Errorf("migrate: admission planning applies to Siloz exclusive reservations")
	}
	need := GuestBytes(spec)
	occ, err := p.Occupancy()
	if err != nil {
		return nil, err
	}

	var freeCap uint64                        // reservable home-socket capacity
	var pool []NodeOccupancy                  // free nodes on other sockets (dest candidates)
	homeOwned := map[string][]NodeOccupancy{} // owner -> home-socket nodes
	for _, o := range occ {
		switch {
		case o.Owner == "" && o.Node.Socket == spec.Socket:
			freeCap += hugePageCap(o)
		case o.Owner == "":
			pool = append(pool, o)
		case o.Node.Socket == spec.Socket:
			homeOwned[o.Owner] = append(homeOwned[o.Owner], o)
		}
	}
	if freeCap >= need {
		return &Plan{}, nil
	}

	plan := &Plan{}

	// Shrink-in-place first (the balloon path): a home-socket VM that
	// declared a MinMemoryBytes floor consents to being ballooned down to
	// it. Every node the balloon fully drains returns to the admission
	// pool without a single page crossing the machine — strictly cheaper
	// than a pre-copy move, so these candidates are consumed before any
	// migration victim is considered.
	ballooning := map[string]bool{}
	type shrinkCand struct {
		vm   *core.VM
		gain uint64 // home-socket huge-page bytes the shrink frees
	}
	var shrinks []shrinkCand
	for owner, nodes := range homeOwned {
		vm, ok := h.VM(strings.TrimPrefix(owner, "vm:"))
		if !ok {
			continue
		}
		spec := vm.Spec()
		if spec.MinMemoryBytes == 0 || spec.MinMemoryBytes >= spec.MemoryBytes {
			continue // VM did not opt into ballooning policy
		}
		rp, err := h.PreviewResize(vm.Name(), spec.MinMemoryBytes)
		if err != nil || rp.Action != core.ResizeInflate || len(rp.ReleasedNodes) == 0 {
			continue // shrink frees pages but drains no whole node: useless here
		}
		var gain uint64
		for _, o := range nodes {
			if slices.Contains(rp.ReleasedNodes, o.Node.ID) {
				gain += vacatedHugeCap(vm, o)
			}
		}
		if gain == 0 {
			continue // only remote nodes drain; the home socket gains nothing
		}
		shrinks = append(shrinks, shrinkCand{vm: vm, gain: gain})
	}
	// Biggest home-socket gain first; name-ordered for determinism.
	slices.SortFunc(shrinks, func(a, b shrinkCand) int {
		return cmp.Or(cmp.Compare(b.gain, a.gain), cmp.Compare(a.vm.Name(), b.vm.Name()))
	})
	for _, c := range shrinks {
		if freeCap >= need {
			break
		}
		plan.Shrinks = append(plan.Shrinks, Shrink{VM: c.vm.Name(), Target: c.vm.Spec().MinMemoryBytes})
		ballooning[c.vm.Name()] = true
		freeCap += c.gain
	}
	if freeCap >= need {
		return plan, nil
	}

	type victim struct {
		vm         *core.VM
		guestBytes uint64
		homeNodes  []NodeOccupancy
	}
	var victims []victim
	for owner, nodes := range homeOwned {
		vm, ok := h.VM(strings.TrimPrefix(owner, "vm:"))
		if !ok {
			continue // reservation without a live VM; nothing to migrate
		}
		if ballooning[vm.Name()] {
			continue // already being shrunk in place
		}
		// Only whole-socket residents: moving them vacates everything
		// they own on the home socket.
		resident := true
		for _, n := range vm.Nodes() {
			if n.Socket != spec.Socket {
				resident = false
				break
			}
		}
		if !resident {
			continue
		}
		victims = append(victims, victim{vm: vm, guestBytes: GuestBytes(vm.Spec()), homeNodes: nodes})
	}
	// Cheapest (smallest) victims first; name-ordered for determinism.
	slices.SortFunc(victims, func(a, b victim) int {
		return cmp.Or(cmp.Compare(a.guestBytes, b.guestBytes), cmp.Compare(a.vm.Name(), b.vm.Name()))
	})

	poolIdx := 0
	for _, v := range victims {
		if freeCap >= need {
			break
		}
		var dests []int
		var destCap uint64
		for poolIdx < len(pool) && destCap < v.guestBytes {
			o := pool[poolIdx]
			poolIdx++
			dests = append(dests, o.Node.ID)
			destCap += hugePageCap(o)
		}
		if destCap < v.guestBytes {
			return nil, fmt.Errorf("migrate: rebalancing infeasible: victim %q needs %d bytes but only %d remain on other sockets",
				v.vm.Name(), v.guestBytes, destCap)
		}
		plan.Moves = append(plan.Moves, Move{VM: v.vm.Name(), DestNodes: dests})
		for _, o := range v.homeNodes {
			freeCap += vacatedHugeCap(v.vm, o)
		}
	}
	if freeCap < need {
		return nil, fmt.Errorf("migrate: rebalancing infeasible: %d bytes needed on socket %d, only %d reachable by migration",
			need, spec.Socket, freeCap)
	}
	return plan, nil
}

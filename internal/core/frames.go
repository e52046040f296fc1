package core

// Frame sourcing: the one place that decides which memory may back a VM and
// the one place that undoes a half-finished lifecycle operation. Siloz's
// software mechanism is a single placement rule (§5.2-5.4) — a VM's pages
// come only from the logical NUMA nodes its control group owns — and every
// operation that needs frames (create, a resize's grow, region allocation,
// migration's destination) states it through a frameTxn.
//
// Policy: a VM draws first on the nodes it may already use — its control
// group's under Siloz, its home socket's host nodes under the baseline — and
// then, under Siloz, adopts unowned guest-reserved nodes in nodeOrder through
// the registry's exclusive Expand, which refuses an owned node: a growing VM
// can never reach into another tenant's domain. Capacity is whole free pages
// of the requested order; boot-time offlining (§6) punches holes that make
// free bytes overestimate it. What a transaction took is its result and its
// undo log. A dry transaction runs the same walk counting capacity instead
// of taking it — PreviewResize, CreateVM's reservation and FreeNodes — so
// what they predict is what the real walk does.

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/geometry"
	"repro/internal/numa"
)

// frameRun is a batch of same-order pages one node supplied.
type frameRun struct {
	node  int
	order int
	pages []uint64
}

// frameTxn is one frame-sourcing transaction. It lives on its caller's
// stack; committing is simply keeping the result and dropping the value.
type frameTxn struct {
	h   *Hypervisor
	vm  *VM  // nil only for FreeNodes' dry run
	dry bool // count capacity; allocate and adopt nothing

	sources []*numa.Node // nodes the VM may already draw on, in spill order
	spare   []*numa.Node // nodeOrder candidates not yet considered for adoption
	adopts  bool         // spare is still to be listed from the VM's spec

	frames  []uint64   // the 2 MiB frames taken, in take order
	runs    []frameRun // every page taken, grouped by supplying node
	adopted []int      // nodes adopted, in adoption order: the walk spills onto them next
}

// sourceFrames opens a transaction under vm's placement policy. Caller
// holds h.mu or the VM's lifecycle latch.
func (h *Hypervisor) sourceFrames(vm *VM) frameTxn {
	if h.mode != ModeSiloz {
		return frameTxn{h: h, vm: vm, sources: h.topo.NodesOnSocket(vm.spec.Socket, numa.HostReserved)}
	}
	return frameTxn{h: h, vm: vm, sources: vm.nodes, adopts: true}
}

// nodeOrder lists the nodes of the class guest frames come from — guest-
// reserved under Siloz, host memory under the baseline — in the order a VM
// homed on socket prefers them: its own socket's in ID order, then, if
// remote, every other socket's (§5.2 locality).
func (h *Hypervisor) nodeOrder(socket int, remote bool) []*numa.Node {
	kind := numa.HostReserved
	if h.mode == ModeSiloz {
		kind = numa.GuestReserved
	}
	out := h.topo.NodesOnSocket(socket, kind)
	for s := 0; remote && s < h.cfg.Geometry.Sockets; s++ {
		if s != socket {
			out = append(out, h.topo.NodesOnSocket(s, kind)...)
		}
	}
	return out
}

// take draws n pages of the given order, spilling across the sources in
// order and adopting when they run out. With whole set all n must come from
// one node (a region records a single owning node). On failure everything
// the transaction holds is rolled back.
func (t *frameTxn) take(order, n int, whole bool) error {
	if !whole && !t.dry && t.frames == nil {
		t.frames = make([]uint64, 0, n)
	}
	for si, need := 0, n; need > 0; si++ {
		if si < len(t.sources) {
			need -= t.draw(t.sources[si].ID, order, need, whole)
			continue
		}
		if si == len(t.sources)+len(t.adopted) {
			if err := t.adoptNext(order, need, whole); err != nil {
				t.rollback()
				return err
			}
		}
		need -= t.draw(t.adopted[si-len(t.sources)], order, need, whole)
	}
	return nil
}

// draw takes up to need pages from one node and reports how many it got.
func (t *frameTxn) draw(node, order, need int, whole bool) int {
	a := t.h.allocators[node]
	if t.dry {
		free := a.FreePagesAtOrder(order)
		if free < need && whole {
			return 0
		}
		return min(free, need)
	}
	var pages []uint64
	if whole {
		pages, _ = a.AllocPages(order, need)
	} else {
		lo := len(t.frames)
		for len(t.frames)-lo < need {
			hpa, err := a.Alloc(order)
			if err != nil {
				break // node exhausted; the walk moves to the next source
			}
			t.frames = append(t.frames, hpa)
		}
		pages = t.frames[lo:]
	}
	if len(pages) > 0 {
		t.runs = append(t.runs, frameRun{node: node, order: order, pages: pages})
	}
	return len(pages)
}

// adoptNext adopts the first candidate that is unowned and can supply at
// least one page (all of them, for a whole draw).
func (t *frameTxn) adoptNext(order, need int, whole bool) error {
	if t.adopts {
		t.spare, t.adopts = t.h.nodeOrder(t.vm.spec.Socket, t.vm.spec.AllowRemote), false
	}
	least := 1
	if whole {
		least = need
	}
	for len(t.spare) > 0 {
		next := t.spare[0]
		t.spare = t.spare[1:]
		if _, owned := t.h.reg.OwnerOf(next.ID); owned {
			continue
		}
		if t.h.allocators[next.ID].FreePagesAtOrder(order) >= least {
			return t.adopt(next)
		}
	}
	who := "the socket"
	if t.vm != nil {
		who = fmt.Sprintf("VM %q", t.vm.spec.Name)
	}
	return fmt.Errorf("%w: %s is %d order-%d pages short and no unowned node it may adopt has them: %w",
		ErrCapacityExhausted, who, need, order, alloc.ErrNoMemory)
}

// adopt adds nodes to what the walk may draw on, first widening the VM's
// control group over them in one exclusive Expand (Siloz; the baseline has
// no domains).
func (t *frameTxn) adopt(nodes ...*numa.Node) error {
	lo := len(t.adopted)
	for _, n := range nodes {
		t.adopted = append(t.adopted, n.ID)
	}
	if !t.dry && t.h.mode == ModeSiloz {
		var err error
		if t.h.expandHook != nil {
			err = t.h.expandHook(t.adopted[lo:])
		}
		if err == nil {
			err = t.h.reg.Expand(t.vm.cgroup.Name, t.adopted[lo:])
		}
		if err != nil {
			t.adopted = t.adopted[:lo]
			return err
		}
		t.vm.nodes = t.vm.cgroup.Nodes()
	}
	return nil
}

// rollback returns everything the transaction took through vacate: the runs
// are scrubbed — they may hold tenant data: a region's, or what an aborted
// migration copied in — and freed, after which the VM holds nothing on the
// adopted nodes and they leave the control group.
func (t *frameTxn) rollback() {
	if t.dry {
		return
	}
	_, _, _ = t.h.vacate(t.vm, t.runs, t.adopted, "") // already failing: the caller reports that error
	t.frames, t.runs, t.adopted = nil, nil, nil
}

// FreeNodes picks unowned nodes on socket a VM of the given size could move
// onto, in node-ID order: the shortest prefix whose whole free 2 MiB pages
// cover bytes (a migration needs frames, not bytes). It fails with
// ErrCapacityExhausted when the socket cannot host that much.
func (h *Hypervisor) FreeNodes(socket int, bytes uint64) ([]int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := frameTxn{h: h, dry: true, spare: h.nodeOrder(socket, false)}
	if err := t.take(alloc.Order2M, int((bytes+geometry.PageSize2M-1)/geometry.PageSize2M), false); err != nil {
		return nil, err
	}
	return t.adopted, nil
}

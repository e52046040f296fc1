package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/addr"
	"repro/internal/alloc"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/mitigation"
	"repro/internal/numa"
	"repro/internal/subarray"
)

// Hypervisor is a booted system: simulated DRAM plus the Siloz (or
// baseline) memory-management state built at boot (§5.3).
type Hypervisor struct {
	cfg    Config
	mode   Mode
	mem    *dram.Memory
	layout *subarray.Layout
	topo   *numa.Topology
	reg    *numa.Registry

	// Node, socket and core IDs are dense from boot, so what is kept per ID
	// is a slice indexed by it.
	allocators []*alloc.Allocator // by node ID
	hostNodes  []*numa.Node       // by socket: its host-reserved node
	eptNodes   []int              // by socket: its EPT node's ID (Siloz)
	offlined   []subarray.Range
	guardBytes uint64 // CATT guard-band capacity currently reserved (under mu)
	stats      []cachedStat
	coreOwner  []*VM // by logical core: the VM pinned there, nil if free

	// mu serializes VM lifecycle (create/destroy/pin) and guards the vms
	// map and coreOwner. Per-VM data paths (WriteGuest/ReadGuest) and the
	// migration engine's copy rounds do not take it, so guest traffic and
	// live migration proceed concurrently with lifecycle operations.
	mu  sync.Mutex
	vms map[string]*VM

	// lifecycleProbe observes lifecycle instants (see Event); set atomically.
	lifecycleProbe atomic.Pointer[func(Event)]
	// expandHook, when set, runs before every control-group Expand of the
	// frame-sourcing path and can fail it: the tests' fault-injection seam.
	expandHook func(nodeIDs []int) error
	// leafHook, when set, runs before every table-leaf edit of a layout
	// commit (and of its sync-back) and can fail it: the same seam for the
	// commit path.
	leafHook func() error
}

// EventKind names a lifecycle instant.
type EventKind string

// Event is one lifecycle instant: what happened, to which VM and, for
// ProbeMigrateRound, the round just completed.
type Event struct {
	Kind  EventKind
	VM    *VM
	Round MigrateRound
}

// The lifecycle instants. A probe runs on the operation's goroutine with its
// locks held (DESIGN.md, "The lifecycle hook contract"): it keeps to
// introspection and never starts a lifecycle operation on its own host.
const (
	// ProbeBalloonUnmapped: a shrink has unmapped the surrendered pages;
	// their frames still hold guest data, not yet scrubbed or freed.
	ProbeBalloonUnmapped EventKind = "balloon.unmapped"
	// ProbeBalloonDrained: those frames are scrubbed and freed; drained
	// nodes have not yet left the control group.
	ProbeBalloonDrained EventKind = "balloon.drained"
	// ProbeHotplugAdopted: a grow past the spec's size holds its frames,
	// possibly on adopted nodes, not yet scrubbed or mapped.
	ProbeHotplugAdopted EventKind = "hotplug.adopted"
	// ProbeMigrateRound: a pre-copy round of MigrateVM or MoveOut has
	// drained its dirty log (Event.Round), before the convergence check.
	ProbeMigrateRound EventKind = "migrate.round"
	// ProbeMoveCopied: MoveOut's copy is complete, before the caller's commit.
	ProbeMoveCopied EventKind = "move.copied"
	// ProbeMoveCommitted: after the commit, before the source is torn down —
	// the double-ownership window, both copies live.
	ProbeMoveCommitted EventKind = "move.committed"
)

// SetLifecycleProbe installs (or clears, with nil) the lifecycle probe.
func (h *Hypervisor) SetLifecycleProbe(p func(Event)) {
	if p == nil {
		h.lifecycleProbe.Store(nil)
		return
	}
	fn := p // moved to the heap only when a probe is installed
	h.lifecycleProbe.Store(&fn)
}

// probe fires the lifecycle probe, if installed.
func (h *Hypervisor) probe(e Event) {
	if p := h.lifecycleProbe.Load(); p != nil {
		(*p)(e)
	}
}

// injectedLeafFault consults the leaf-edit seam once per leaf of a run of n,
// in order, and returns how many leaves precede the first it wants to fail,
// with that leaf's error: a run of edits ends before the faulting leaf.
func (h *Hypervisor) injectedLeafFault(n int) (int, error) {
	for i := 0; h.leafHook != nil && i < n; i++ {
		if err := h.leafHook(); err != nil {
			return i, err
		}
	}
	return n, nil
}

// Boot initializes a hypervisor in the given mode. It performs Siloz's
// early-boot sequence (§5.3): compute subarray group address ranges from the
// platform's physical-to-media mapping (or take cfg.Sibling's), provision a
// logical NUMA node per group, offline guard and isolation-hazard pages, and
// carve the guard-protected EPT row-group block.
func Boot(cfg Config, mode Mode) (*Hypervisor, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Mitigation.IsolatesSubarrayGroups() && mode != ModeSiloz {
		return nil, fmt.Errorf("core: mitigation %q requires ModeSiloz, got %s",
			cfg.Mitigation.Name(), mode)
	}
	// The mapping and the ranges computed from it are the box's (§5.3): a
	// sibling has them already, and its row arena with them.
	var (
		mapper     addr.Mapper
		rows       *dram.RowStore
		layout     *subarray.Layout
		transforms = cfg.transforms()
		err        error
	)
	if sib := cfg.Sibling; sib != nil {
		if sib.cfg.Geometry != cfg.Geometry || sib.layout.Transforms() != transforms {
			return nil, fmt.Errorf("core: a sibling of another geometry or other row address transforms is not of this box")
		}
		mapper, rows, layout = sib.mem.Mapper(), sib.mem.RowStore(), sib.layout
	} else if mapper, err = addr.NewMapper(cfg.Geometry, addr.KindSkylake); err != nil {
		return nil, err
	}
	mem, err := dram.NewMemoryOn(rows, cfg.Geometry, mapper, cfg.Profiles, cfg.Repairs)
	if err != nil {
		return nil, err
	}
	if spec := cfg.Mitigation; spec.HasRowDefense() {
		// One defense instance per DRAM module, each with its own seeded
		// RNG stream — per-DIMM hardware state, deterministic per scope.
		dimms := cfg.Geometry.DIMMsPerSocket
		mem.AttachDefense(func(socket, dimm, banks int) mitigation.Mitigation {
			d, derr := spec.RowDefense(banks, mitigation.ScopeSeed(spec.Seed, socket*dimms+dimm))
			if derr != nil {
				return nil // unreachable post-Validate; leave undefended
			}
			return d
		})
	}
	h := &Hypervisor{
		cfg:       cfg,
		mode:      mode,
		mem:       mem,
		topo:      &numa.Topology{},
		coreOwner: make([]*VM, cfg.Geometry.Sockets*cfg.Geometry.CoresPerSocket),
		vms:       make(map[string]*VM),
	}
	if layout == nil {
		if layout, err = subarray.NewLayout(cfg.Geometry, mapper, transforms); err != nil {
			return nil, err
		}
	}
	h.layout = layout

	if mode == ModeSiloz {
		err = h.bootSiloz()
	} else {
		err = h.bootBaseline()
	}
	if err != nil {
		return nil, err
	}
	h.reg = numa.NewRegistry(h.topo)
	return h, nil
}

// BootMitigated boots with the mode the configured mitigation implies:
// KindSiloz runs the Siloz hypervisor, every other kind runs the baseline
// (PARA/Silver Bullet act at the DRAM layer, CATT at allocation, none is
// the undefended control). It is the single entry point head-to-head
// evaluations use so each matrix row gets the topology its defense assumes.
func BootMitigated(cfg Config) (*Hypervisor, error) {
	mode := ModeBaseline
	if cfg.Mitigation.IsolatesSubarrayGroups() {
		mode = ModeSiloz
	}
	return Boot(cfg, mode)
}

// bootSiloz builds the logical node topology with isolation enabled.
func (h *Hypervisor) bootSiloz() error {
	g := h.cfg.Geometry

	// Offline rows that violate isolation: artificial-boundary guards
	// (§6) and inter-subarray repaired rows (§6), each repair resolved
	// through its own module's translation driver, in any order and
	// repeated as they come.
	hazardRows := h.layout.BoundaryGuardRows()
	if rt := h.cfg.Repairs; rt != nil {
		for _, r := range rt.InterSubarrayRepairs() {
			im := h.mem.Module(r.Bank.Socket, r.Bank.DIMM).InternalMapper()
			hazardRows = append(hazardRows,
				im.MediaRow(r.Bank, r.From, addr.SideA), im.MediaRow(r.Bank, r.From, addr.SideB))
		}
	}
	offline, err := h.layout.OfflineRangesForRows(hazardRows)
	if err != nil {
		return err
	}
	h.offlined = offline

	for s := 0; s < g.Sockets; s++ {
		if err := h.provisionSocket(s, offline); err != nil {
			return err
		}
	}
	h.offlined = subarray.Coalesce(h.offlined) // merged once: every Audit scans it
	return nil
}

// hostGroups is how many subarray groups each socket's host-reserved node
// owns; all remaining groups become guest-reserved nodes ("all but one
// logical node per socket", §5.2).
const hostGroups = 1

// provisionSocket creates the socket's host node (with the EPT block carved
// out of its first group), EPT node, and guest-reserved nodes.
func (h *Hypervisor) provisionSocket(socket int, offline []subarray.Range) error {
	g := h.cfg.Geometry
	if hostGroups >= h.layout.GroupsPerSocket() {
		return fmt.Errorf("core: host groups (%d) must leave at least one guest group of %d",
			hostGroups, h.layout.GroupsPerSocket())
	}

	blockRanges, eptRanges, guardRanges, err := eptBlock(h.layout, socket)
	if err != nil {
		return err
	}
	h.offlined = append(h.offlined, guardRanges...)

	cores := make([]int, g.CoresPerSocket)
	for i := range cores {
		cores[i] = socket*g.CoresPerSocket + i
	}

	// Host-reserved node: the first hostGroups groups minus the
	// EPT block and any offlined isolation hazards — nodes never own
	// offlined memory.
	var hostRanges []subarray.Range
	groups := make([]int, 0, hostGroups)
	for gi := 0; gi < hostGroups; gi++ {
		hostRanges = append(hostRanges, h.layout.Group(socket, gi).Ranges...)
		groups = append(groups, gi)
	}
	hostRanges = subarray.Subtract(hostRanges, blockRanges)
	hostRanges = subarray.Subtract(hostRanges, offline)
	hostNode, err := h.topo.AddNode(&numa.Node{
		Kind: numa.HostReserved, Socket: socket, Groups: groups,
		Ranges: hostRanges, Cores: cores,
	})
	if err != nil {
		return err
	}
	if err := h.addAllocator(hostNode); err != nil {
		return err
	}
	h.hostNodes = append(h.hostNodes, hostNode) // sockets provision in order

	// EPT node: the single EPT row group (§5.4).
	eptNode, err := h.topo.AddNode(&numa.Node{
		Kind: numa.EPTReserved, Socket: socket,
		Ranges: eptRanges,
	})
	if err != nil {
		return err
	}
	if err := h.addAllocator(eptNode); err != nil {
		return err
	}
	h.eptNodes = append(h.eptNodes, eptNode.ID) // sockets provision in order

	// Guest-reserved nodes: one per remaining subarray group, memory
	// only (§5.2), minus offlined hazards.
	for gi := hostGroups; gi < h.layout.GroupsPerSocket(); gi++ {
		grp := h.layout.Group(socket, gi)
		n, err := h.topo.AddNode(&numa.Node{
			Kind: numa.GuestReserved, Socket: socket, Groups: []int{gi},
			Ranges: subarray.Subtract(grp.Ranges, offline),
		})
		if err != nil {
			return err
		}
		if err := h.addAllocator(n); err != nil {
			return err
		}
	}
	return nil
}

// eptBlock returns the socket's EPT row-group block (§5.4): row groups
// [0, b) of its first (host) subarray group, clipped to that group. The row
// group at offset o stores EPTs and the rest are guards; block is the
// merged union of both.
func eptBlock(l *subarray.Layout, socket int) (block, ept, guards []subarray.Range, err error) {
	hostGroup := l.Group(socket, 0)
	rows := make([]subarray.Range, min(EPTBlockRowGroups, hostGroup.LastRow-hostGroup.FirstRow+1))
	for i := range rows {
		if rows[i], err = l.RowGroupRange(socket, hostGroup.FirstRow+i); err != nil {
			return nil, nil, nil, err
		}
	}
	block = subarray.Coalesce(rows)
	if EPTRowGroupOffset < len(rows) {
		ept = []subarray.Range{rows[EPTRowGroupOffset]}
		rows = slices.Delete(rows, EPTRowGroupOffset, EPTRowGroupOffset+1)
	}
	return block, ept, rows, nil
}

// bootBaseline builds the unmodified-Linux topology: one host node per
// socket owning the whole socket; no offlining; EPTs from host memory.
func (h *Hypervisor) bootBaseline() error {
	g := h.cfg.Geometry
	for s := 0; s < g.Sockets; s++ {
		var ranges []subarray.Range
		groups := make([]int, h.layout.GroupsPerSocket())
		for gi := 0; gi < h.layout.GroupsPerSocket(); gi++ {
			ranges = append(ranges, h.layout.Group(s, gi).Ranges...)
			groups[gi] = gi
		}
		cores := make([]int, g.CoresPerSocket)
		for i := range cores {
			cores[i] = s*g.CoresPerSocket + i
		}
		n, err := h.topo.AddNode(&numa.Node{
			Kind: numa.HostReserved, Socket: s, Groups: groups,
			Ranges: subarray.Coalesce(ranges), Cores: cores,
		})
		if err != nil {
			return err
		}
		if err := h.addAllocator(n); err != nil {
			return err
		}
		h.hostNodes = append(h.hostNodes, n)
	}
	return nil
}

func (h *Hypervisor) addAllocator(n *numa.Node) error {
	a, err := alloc.New(n.Ranges)
	if err != nil {
		return err
	}
	h.allocators = append(h.allocators, a) // nodes are added in ID order
	return nil
}

// Mode returns the hypervisor configuration.
func (h *Hypervisor) Mode() Mode { return h.mode }

// Memory returns the simulated DRAM.
func (h *Hypervisor) Memory() *dram.Memory { return h.mem }

// Layout returns the boot-time subarray group layout.
func (h *Hypervisor) Layout() *subarray.Layout { return h.layout }

// Topology returns the logical NUMA topology.
func (h *Hypervisor) Topology() *numa.Topology { return h.topo }

// Registry returns the control-group registry.
func (h *Hypervisor) Registry() *numa.Registry { return h.reg }

// Allocator returns the allocator of a logical node.
func (h *Hypervisor) Allocator(nodeID int) (*alloc.Allocator, error) {
	if nodeID < 0 || nodeID >= len(h.allocators) {
		return nil, fmt.Errorf("core: no allocator for node %d", nodeID)
	}
	return h.allocators[nodeID], nil
}

// OfflinedRanges returns the physical ranges removed from allocatable
// memory at boot (EPT guards, artificial-boundary guards, repaired rows).
func (h *Hypervisor) OfflinedRanges() []subarray.Range {
	return subarray.Coalesce(h.offlined)
}

// MitigationBlockedBytes returns the capacity the deployed mitigation makes
// unallocatable: boot-time offlining (Siloz guard rows, repairs) plus
// currently-reserved CATT guard bands. It is the blocked-capacity axis of
// the protection-vs-overhead matrix.
func (h *Hypervisor) MitigationBlockedBytes() uint64 {
	var total uint64
	for _, r := range h.OfflinedRanges() {
		total += r.Bytes()
	}
	h.mu.Lock()
	total += h.guardBytes
	h.mu.Unlock()
	return total
}

// EPTNode returns the socket's EPT-reserved node (Siloz only).
func (h *Hypervisor) EPTNode(socket int) (*numa.Node, error) {
	if socket < 0 || socket >= len(h.eptNodes) {
		return nil, fmt.Errorf("core: no EPT node on socket %d (mode %s)", socket, h.mode)
	}
	return h.topo.Node(h.eptNodes[socket])
}

// eptAllocatorFor returns the allocator EPT table pages come from, modelling
// KVM's kmalloc with the new GFP_EPT flag (§5.4): under Siloz with guard-row
// protection it draws from the socket's EPT node; otherwise from the
// socket's host node.
func (h *Hypervisor) eptAllocatorFor(socket int) (*alloc.Allocator, error) {
	if h.mode == ModeSiloz && h.cfg.EPTProtection == ept.GuardRows {
		if socket < 0 || socket >= len(h.eptNodes) {
			return nil, fmt.Errorf("core: missing EPT node for socket %d", socket)
		}
		return h.Allocator(h.eptNodes[socket])
	}
	_, a, err := h.hostNode(socket)
	return a, err
}

// hostNode returns socket's host-reserved node and its allocator: where
// host software, mediated guest pages and (outside guard-rows protection)
// EPT tables live (§5.1).
func (h *Hypervisor) hostNode(socket int) (*numa.Node, *alloc.Allocator, error) {
	if socket < 0 || socket >= len(h.hostNodes) {
		return nil, nil, fmt.Errorf("core: no host node on socket %d", socket)
	}
	host := h.hostNodes[socket]
	return host, h.allocators[host.ID], nil
}

// nodeOf returns the ID of the node owning the frame at pa — the node whose
// allocator the frame came from — or -1: a search of the topology's sorted
// range table, which is all a VM needs to know where its frames live.
func (h *Hypervisor) nodeOf(pa uint64) int {
	if n, ok := h.topo.NodeOf(pa); ok {
		return n.ID
	}
	return -1
}

// AllocHostPages allocates pages for host software (kernel, processes,
// mediated VM pages) from the socket's host-reserved node (§5.1).
func (h *Hypervisor) AllocHostPages(socket, order, n int) ([]uint64, error) {
	_, a, err := h.hostNode(socket)
	if err != nil {
		return nil, err
	}
	return a.AllocPages(order, n)
}

// VM returns a created VM by name.
func (h *Hypervisor) VM(name string) (*VM, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	vm, ok := h.vms[name]
	return vm, ok
}

// VMs returns all VMs sorted by name.
func (h *Hypervisor) VMs() []*VM {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*VM, 0, len(h.vms))
	for _, vm := range h.vms {
		out = append(out, vm)
	}
	slices.SortFunc(out, func(a, b *VM) int { return strings.Compare(a.spec.Name, b.spec.Name) })
	return out
}

// Shutdown kills every VM and releases its resources. Host shutdown needs
// no Siloz-specific handling (§5.3): the privileged routine is free to kill
// any process and its resources, ignoring active subarray group and logical
// node constraints.
func (h *Hypervisor) Shutdown() {
	for _, vm := range h.VMs() {
		_ = h.DestroyVM(vm.Name())
	}
}

// InternalMapperFor exposes a module's internal address mapping, the
// simulation's stand-in for Siloz's address-translation drivers (§5.3).
func (h *Hypervisor) InternalMapperFor(socket, dimm int) *addr.InternalMapper {
	return h.mem.Module(socket, dimm).InternalMapper()
}

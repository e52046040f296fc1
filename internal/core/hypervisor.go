package core

import (
	"fmt"
	"sort"
	"sync"

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

	allocators map[int]*alloc.Allocator // node ID -> allocator
	eptNodes   map[int]int              // socket -> EPT node ID (Siloz)
	offlined   []subarray.Range
	guardBytes uint64 // CATT guard-band capacity currently reserved (under mu)
	stats      *statCache
	coreOwner  map[int]string // logical core -> pinned VM

	// mu serializes VM lifecycle (create/destroy/pin) and guards the vms
	// and coreOwner maps. Per-VM data paths (WriteGuest/ReadGuest) and the
	// migration engine's copy rounds do not take it, so guest traffic and
	// live migration proceed concurrently with lifecycle operations.
	mu  sync.Mutex
	vms map[string]*VM

	// lifecycleProbe, when set, observes the transient windows inside
	// lifecycle operations (see the Probe* event constants). Deterministic
	// adversarial campaigns hook it to attack an operation mid-flight
	// without racing real goroutines against it.
	lifecycleProbe func(event string, vm *VM)
	// expandHook, when set, runs before every control-group Expand of the
	// frame-sourcing path and can fail it: the tests' fault-injection seam.
	expandHook func(nodeIDs []int) error
	// leafHook, when set, runs before every table-leaf edit of a layout
	// commit (and of its sync-back) and can fail it: the same seam for the
	// commit path.
	leafHook func() error
}

// Lifecycle-probe events, fired at the sensitive instants adversarial
// campaigns target. Probes run on the lifecycle operation's own goroutine
// — the balloon and hotplug events with h.mu held, the move events without
// it but with the guest paused — so they must restrict themselves to
// non-blocking introspection (TranslateUncached, Memory() reads/activations)
// or hand work to other goroutines without waiting on them.
const (
	// ProbeBalloonUnmapped fires during a balloon inflate after the
	// surrendered EPT leaves are unmapped (and device IOMMU entries
	// dropped) but before the backing frames are scrubbed and freed. The
	// guest is paused; the frames still hold its data but are only
	// reachable physically. h.mu is held.
	ProbeBalloonUnmapped = "balloon.unmapped"
	// ProbeBalloonDrained fires after the surrendered frames have been
	// scrubbed and returned to their node's allocator, before drained
	// nodes leave the VM's control group. h.mu is held.
	ProbeBalloonDrained = "balloon.drained"
	// ProbeHotplugAdopted fires during a memory hotplug after destination
	// frames are allocated (possibly from freshly-adopted subarray-group
	// nodes) but before the scrub-before-map pass. The guest is running
	// but the new range is not yet mapped. h.mu is held.
	ProbeHotplugAdopted = "hotplug.adopted"
	// ProbeMoveCopied fires inside MoveOut once the copy into the twin is
	// complete, immediately before the caller's commit. h.mu is not held;
	// the guest is paused and latched, so the probe must not touch its guest
	// memory. It runs on MoveOut's caller — for a fleet move the goroutine
	// that submitted the move's source op, holding that host's lock, so the
	// probe must not submit an op to that host.
	ProbeMoveCopied = "move.copied"
	// ProbeMoveCommitted fires immediately after the caller's commit, before
	// the source copy is torn down: the double-ownership window, both copies
	// live. h.mu is not held; the rest is as for ProbeMoveCopied.
	ProbeMoveCommitted = "move.committed"
)

// SetLifecycleProbe installs (or clears, with nil) the lifecycle probe.
// Install it before the operations of interest start; the hook is read
// without synchronization on the lifecycle paths.
func (h *Hypervisor) SetLifecycleProbe(p func(event string, vm *VM)) { h.lifecycleProbe = p }

// probe fires the lifecycle probe, if installed.
func (h *Hypervisor) probe(event string, vm *VM) {
	if h.lifecycleProbe != nil {
		h.lifecycleProbe(event, vm)
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
// platform's physical-to-media mapping, provision a logical NUMA node per
// group, offline guard and isolation-hazard pages, and carve the
// guard-protected EPT row-group block.
func Boot(cfg Config, mode Mode) (*Hypervisor, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Mitigation.IsolatesSubarrayGroups() && mode != ModeSiloz {
		return nil, fmt.Errorf("core: mitigation %q requires ModeSiloz, got %s",
			cfg.Mitigation.Name(), mode)
	}
	mapper, err := addr.NewMapper(cfg.Geometry, addr.KindSkylake)
	if err != nil {
		return nil, err
	}
	mem, err := dram.NewMemory(cfg.Geometry, mapper, cfg.Profiles, cfg.Repairs)
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
		cfg:        cfg,
		mode:       mode,
		mem:        mem,
		topo:       &numa.Topology{},
		allocators: make(map[int]*alloc.Allocator),
		eptNodes:   make(map[int]int),
		vms:        make(map[string]*VM),
	}
	var layout *subarray.Layout
	if cfg.CachedLayout != nil {
		// Reuse ranges computed on a previous boot; fall back to full
		// recomputation if the cache does not match this boot (§5.3).
		layout, err = subarray.Load(cfg.CachedLayout, cfg.Geometry, mapper)
	}
	if layout == nil || err != nil {
		layout, err = subarray.NewLayoutForModule(cfg.Geometry, mapper, cfg.Profiles[0].Transforms)
		if err != nil {
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
	transforms := h.cfg.Profiles[0].Transforms

	// Offline rows that violate isolation: artificial-boundary guards
	// (§6) and inter-subarray repaired rows (§6).
	var hazardRows []int
	hazardRows = append(hazardRows, h.layout.BoundaryGuardRows(transforms)...)
	repairRows := subarray.RepairOfflineRows(g, h.cfg.Repairs, transforms)
	rowSet := make(map[int]bool)
	for _, r := range hazardRows {
		rowSet[r] = true
	}
	for _, rows := range repairRows {
		for _, r := range rows {
			rowSet[r] = true
		}
	}
	allRows := make([]int, 0, len(rowSet))
	for r := range rowSet {
		allRows = append(allRows, r)
	}
	sort.Ints(allRows)
	offline, err := h.layout.OfflineRangesForRows(allRows)
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

	// EPT row-group block (§5.4): row groups [0, b) of the socket's
	// first (host) subarray group; the row group at offset o stores
	// EPTs, the rest are guards.
	hostGroup := h.layout.Group(socket, 0)
	blockFirst := hostGroup.FirstRow
	var blockRanges, eptRanges, guardRanges []subarray.Range
	for i := 0; i < EPTBlockRowGroups; i++ {
		rows := []int{blockFirst + i}
		rs, err := h.layout.OfflineRangesForRows(rows)
		if err != nil {
			return err
		}
		// OfflineRangesForRows covers every socket; keep this one's.
		rs = subarray.Intersect(rs, hostGroup.Ranges)
		blockRanges = append(blockRanges, rs...)
		if i == EPTRowGroupOffset {
			eptRanges = append(eptRanges, rs...)
		} else {
			guardRanges = append(guardRanges, rs...)
		}
	}
	blockRanges = subarray.Coalesce(blockRanges)
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
	if err := h.addAllocator(hostNode, nil); err != nil {
		return err
	}

	// EPT node: the single EPT row group (§5.4).
	eptNode, err := h.topo.AddNode(&numa.Node{
		Kind: numa.EPTReserved, Socket: socket,
		Ranges: subarray.Coalesce(eptRanges),
	})
	if err != nil {
		return err
	}
	if err := h.addAllocator(eptNode, nil); err != nil {
		return err
	}
	h.eptNodes[socket] = eptNode.ID

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
		if err := h.addAllocator(n, nil); err != nil {
			return err
		}
	}
	return nil
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
		if err := h.addAllocator(n, nil); err != nil {
			return err
		}
	}
	return nil
}

func (h *Hypervisor) addAllocator(n *numa.Node, offline []subarray.Range) error {
	a, err := alloc.New(n.Ranges, offline)
	if err != nil {
		return err
	}
	h.allocators[n.ID] = a
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
	a, ok := h.allocators[nodeID]
	if !ok {
		return nil, fmt.Errorf("core: no allocator for node %d", nodeID)
	}
	return a, nil
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
	id, ok := h.eptNodes[socket]
	if !ok {
		return nil, fmt.Errorf("core: no EPT node on socket %d (mode %s)", socket, h.mode)
	}
	return h.topo.Node(id)
}

// eptAllocatorFor returns the allocator EPT table pages come from, modelling
// KVM's kmalloc with the new GFP_EPT flag (§5.4): under Siloz with guard-row
// protection it draws from the socket's EPT node; otherwise from the
// socket's host node.
func (h *Hypervisor) eptAllocatorFor(socket int) (*alloc.Allocator, error) {
	if h.mode == ModeSiloz && h.cfg.EPTProtection == ept.GuardRows {
		id, ok := h.eptNodes[socket]
		if !ok {
			return nil, fmt.Errorf("core: missing EPT node for socket %d", socket)
		}
		return h.Allocator(id)
	}
	_, a, err := h.hostNode(socket)
	return a, err
}

// hostNode returns socket's host-reserved node and its allocator: where
// host software, mediated guest pages and (outside guard-rows protection)
// EPT tables live (§5.1).
func (h *Hypervisor) hostNode(socket int) (*numa.Node, *alloc.Allocator, error) {
	host := h.topo.NodesOnSocket(socket, numa.HostReserved)
	if len(host) == 0 {
		return nil, nil, fmt.Errorf("core: no host node on socket %d", socket)
	}
	return host[0], h.allocators[host[0].ID], nil
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
	names := make([]string, 0, len(h.vms))
	for n := range h.vms {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*VM, len(names))
	for i, n := range names {
		out[i] = h.vms[n]
	}
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

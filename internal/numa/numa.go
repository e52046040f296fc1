// Package numa implements Siloz's logical NUMA node abstraction (§5.2):
// memory pools consisting of one or more subarray groups, carved out of
// physical NUMA nodes (sockets). Logical nodes reuse robust kernel NUMA
// mechanics — node lists, mems_allowed control groups — to manage subarray
// group isolation, while preserving physical NUMA semantics through an
// explicit logical-to-physical mapping.
package numa

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/subarray"
)

// NodeKind classifies a logical node's reservation (§5.1, §5.4).
type NodeKind int

const (
	// HostReserved nodes serve host processes, the kernel, and mediated
	// VM pages; they carry their socket's cores.
	HostReserved NodeKind = iota
	// GuestReserved nodes are memory-only and serve exactly one VM's
	// unmediated pages.
	GuestReserved
	// EPTReserved nodes hold extended page table pages inside the
	// guard-protected row group block (§5.4).
	EPTReserved
)

func (k NodeKind) String() string {
	switch k {
	case HostReserved:
		return "host"
	case GuestReserved:
		return "guest"
	case EPTReserved:
		return "ept"
	}
	return "invalid"
}

// Node is one logical NUMA node.
type Node struct {
	// ID is the node number exposed to memory policy.
	ID int
	// Kind is the reservation class.
	Kind NodeKind
	// Socket is the physical node the memory lives on; logical nodes
	// never span sockets, preserving locality optimization (§5.2).
	Socket int
	// Groups lists the subarray group indices composing the node (empty
	// for the EPT node, which is a sub-group row block).
	Groups []int
	// Ranges are the physical address ranges the node owns.
	Ranges []subarray.Range
	// Cores lists the logical cores associated with the node; only
	// host-reserved nodes have cores (§5.2).
	Cores []int
}

// Bytes returns the node's capacity.
func (n *Node) Bytes() uint64 {
	var total uint64
	for _, r := range n.Ranges {
		total += r.Bytes()
	}
	return total
}

// Contains reports whether the node owns a physical address.
func (n *Node) Contains(pa uint64) bool {
	for _, r := range n.Ranges {
		if r.Contains(pa) {
			return true
		}
	}
	return false
}

// Topology is the set of logical nodes of one booted system.
type Topology struct {
	nodes []*Node
}

// AddNode registers a node, assigning its ID. Ranges must be non-empty.
func (t *Topology) AddNode(n *Node) (*Node, error) {
	if len(n.Ranges) == 0 {
		return nil, fmt.Errorf("numa: node must own at least one range")
	}
	n.ID = len(t.nodes)
	t.nodes = append(t.nodes, n)
	return n, nil
}

// Nodes returns all nodes in ID order.
func (t *Topology) Nodes() []*Node {
	out := make([]*Node, len(t.nodes))
	copy(out, t.nodes)
	return out
}

// Node returns the node with the given ID.
func (t *Topology) Node(id int) (*Node, error) {
	if id < 0 || id >= len(t.nodes) {
		return nil, fmt.Errorf("numa: no node %d", id)
	}
	return t.nodes[id], nil
}

// NodesOnSocket returns the socket's nodes in ID order, optionally filtered
// by kind, in a fresh slice of exactly their number.
func (t *Topology) NodesOnSocket(socket int, kinds ...NodeKind) []*Node {
	return t.collect(func(n *Node) bool {
		return n.Socket == socket && (len(kinds) == 0 || slices.Contains(kinds, n.Kind))
	})
}

// NodesOfKind returns all nodes of a kind in ID order, in a fresh slice of
// exactly their number.
func (t *Topology) NodesOfKind(k NodeKind) []*Node {
	return t.collect(func(n *Node) bool { return n.Kind == k })
}

// collect counts the nodes match accepts, then copies them out in ID order
// with one allocation (none when no node matches).
func (t *Topology) collect(match func(*Node) bool) []*Node {
	count := 0
	for _, n := range t.nodes {
		if match(n) {
			count++
		}
	}
	out := make([]*Node, 0, count)
	for _, n := range t.nodes {
		if match(n) {
			out = append(out, n)
		}
	}
	return out
}

// NodeOf returns the node owning a physical address, if any.
func (t *Topology) NodeOf(pa uint64) (*Node, bool) {
	for _, n := range t.nodes {
		if n.Contains(pa) {
			return n, true
		}
	}
	return nil, false
}

// CGroup models a Linux control group restricting memory allocations to a
// node set (mems_allowed, §5.2-5.3). Guest-reserved nodes are exclusively
// owned: the registry refuses to place one node in two cgroups.
type CGroup struct {
	Name  string
	reg   *Registry
	nodes map[int]*Node
	dead  bool // set by Registry.Destroy; the handle must not look live
}

// Nodes returns the cgroup's allowed nodes in ID order. A destroyed cgroup
// has no nodes: its reservations were released, so a retained handle must
// not present them as live to the planner.
func (c *CGroup) Nodes() []*Node {
	c.reg.mu.Lock()
	defer c.reg.mu.Unlock()
	if c.dead {
		return nil
	}
	out := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	slices.SortFunc(out, func(a, b *Node) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Allows reports whether the cgroup may allocate on the node. Always false
// after Destroy.
func (c *CGroup) Allows(id int) bool {
	c.reg.mu.Lock()
	defer c.reg.mu.Unlock()
	if c.dead {
		return false
	}
	_, ok := c.nodes[id]
	return ok
}

// Registry tracks control groups and exclusive node ownership. All methods
// are safe for concurrent use: VM lifecycle operations race on it, and the
// exclusive-ownership check is the isolation invariant, so it must be
// atomic with the commit.
type Registry struct {
	mu      sync.Mutex
	topo    *Topology
	cgroups map[string]*CGroup
	owner   map[int]string // guest node ID -> cgroup name
}

// NewRegistry builds a registry over a topology.
func NewRegistry(topo *Topology) *Registry {
	return &Registry{topo: topo, cgroups: make(map[string]*CGroup), owner: make(map[int]string)}
}

// Create makes a control group with exclusive access to the given
// guest-reserved nodes (§5.3). Host- and EPT-reserved nodes may be shared
// across cgroups; guest-reserved nodes must be unowned.
func (r *Registry) Create(name string, nodeIDs []int) (*CGroup, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.cgroups[name]; dup {
		return nil, fmt.Errorf("numa: cgroup %q already exists", name)
	}
	cg := &CGroup{Name: name, reg: r, nodes: make(map[int]*Node)}
	for _, id := range nodeIDs {
		n, err := r.claim(name, id)
		if err != nil {
			return nil, err
		}
		cg.nodes[id] = n
	}
	// Commit ownership only after all checks pass.
	for id, n := range cg.nodes {
		if n.Kind == GuestReserved {
			r.owner[id] = name
		}
	}
	r.cgroups[name] = cg
	return cg, nil
}

// claim validates that a node may join the named cgroup. Caller holds r.mu.
func (r *Registry) claim(name string, id int) (*Node, error) {
	n, err := r.topo.Node(id)
	if err != nil {
		return nil, err
	}
	if n.Kind == GuestReserved {
		if owner, taken := r.owner[id]; taken {
			return nil, fmt.Errorf("numa: guest node %d already reserved by cgroup %q", id, owner)
		}
	}
	return n, nil
}

// Expand atomically adds nodes to an existing cgroup — the migration
// engine's node-adoption step: during a live move the VM's mems_allowed
// covers both the source and destination subarray groups, and exclusive
// ownership guarantees the widened domain still overlaps no other tenant.
func (r *Registry) Expand(name string, nodeIDs []int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cg, ok := r.cgroups[name]
	if !ok {
		return fmt.Errorf("numa: no cgroup %q", name)
	}
	adds := make(map[int]*Node, len(nodeIDs))
	for _, id := range nodeIDs {
		if _, dup := cg.nodes[id]; dup {
			return fmt.Errorf("numa: node %d already in cgroup %q", id, name)
		}
		n, err := r.claim(name, id)
		if err != nil {
			return err
		}
		adds[id] = n
	}
	for id, n := range adds {
		cg.nodes[id] = n
		if n.Kind == GuestReserved {
			r.owner[id] = name
		}
	}
	return nil
}

// Shrink atomically removes nodes from a cgroup, releasing their exclusive
// ownership — the migration engine's source-release step after the VM's
// pages have left the old subarray groups.
func (r *Registry) Shrink(name string, nodeIDs []int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cg, ok := r.cgroups[name]
	if !ok {
		return fmt.Errorf("numa: no cgroup %q", name)
	}
	for _, id := range nodeIDs {
		if _, member := cg.nodes[id]; !member {
			return fmt.Errorf("numa: node %d not in cgroup %q", id, name)
		}
	}
	for _, id := range nodeIDs {
		if cg.nodes[id].Kind == GuestReserved {
			delete(r.owner, id)
		}
		delete(cg.nodes, id)
	}
	return nil
}

// Destroy removes a cgroup, releasing its guest-reserved nodes (§5.3: the
// reservation remains valid until a privileged user destroys the cgroup).
func (r *Registry) Destroy(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cg, ok := r.cgroups[name]
	if !ok {
		return fmt.Errorf("numa: no cgroup %q", name)
	}
	for id, n := range cg.nodes {
		if n.Kind == GuestReserved {
			delete(r.owner, id)
		}
	}
	cg.dead = true
	delete(r.cgroups, name)
	return nil
}

// OwnerOf returns the cgroup owning a guest-reserved node, if any.
func (r *Registry) OwnerOf(nodeID int) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name, ok := r.owner[nodeID]
	return name, ok
}

// Package numa implements Siloz's logical NUMA node abstraction (§5.2):
// memory pools consisting of one or more subarray groups, carved out of
// physical NUMA nodes (sockets). Logical nodes reuse robust kernel NUMA
// mechanics — node lists, mems_allowed control groups — to manage subarray
// group isolation, while preserving physical NUMA semantics through an
// explicit logical-to-physical mapping.
package numa

import (
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

// Topology is the set of logical nodes of one booted system. Node IDs are
// dense from 0, assigned in AddNode order, so state kept per node is a slice
// indexed by ID.
type Topology struct {
	nodes []*Node
	// spans is every node's non-empty ranges sorted by start: the one table
	// NodeOf searches. Nodes never overlap, so it is also disjoint.
	spans []span
}

// span is one range of one node in Topology.spans.
type span struct {
	start, end uint64
	node       *Node
}

// AddNode registers a node, assigning its ID. Ranges must be non-empty and
// overlap no node already added: a physical address has at most one owner.
func (t *Topology) AddNode(n *Node) (*Node, error) {
	if len(n.Ranges) == 0 {
		return nil, fmt.Errorf("numa: node must own at least one range")
	}
	spans := slices.Clone(t.spans)
	for _, r := range n.Ranges {
		if r.Start >= r.End {
			continue
		}
		i := spanAfter(spans, r.Start)
		for _, j := range [2]int{i - 1, i} {
			if j >= 0 && j < len(spans) && spans[j].start < r.End && r.Start < spans[j].end {
				return nil, fmt.Errorf("numa: range %v overlaps an owned range [%#x,%#x)", r, spans[j].start, spans[j].end)
			}
		}
		spans = slices.Insert(spans, i, span{r.Start, r.End, n})
	}
	n.ID = len(t.nodes)
	t.nodes, t.spans = append(t.nodes, n), spans
	return n, nil
}

// spanAfter returns the index of the first span starting above pa.
func spanAfter(spans []span, pa uint64) int {
	lo, hi := 0, len(spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if spans[m].start <= pa {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Nodes returns all nodes in ID order. The slice is the topology's own,
// clipped, and read-only: AddNode only ever appends to it, so what a caller
// holds stays as it was returned, and the caller must not write to it. A
// read allocates nothing.
func (t *Topology) Nodes() []*Node {
	return t.nodes[:len(t.nodes):len(t.nodes)]
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

// NodeOf returns the node owning a physical address, if any: a binary
// search of the sorted range table.
func (t *Topology) NodeOf(pa uint64) (*Node, bool) {
	if i := spanAfter(t.spans, pa); i > 0 && pa < t.spans[i-1].end {
		return t.spans[i-1].node, true
	}
	return nil, false
}

// CGroup models a Linux control group restricting memory allocations to a
// node set (mems_allowed, §5.2-5.3). Guest-reserved nodes are exclusively
// owned: the registry refuses to place one node in two cgroups.
type CGroup struct {
	Name  string
	reg   *Registry
	nodes []*Node // by node ID: the member nodes, nil where not a member
	count int     // members: the non-nil entries of nodes
	dead  bool    // set by Registry.Destroy; the handle must not look live
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
	out := make([]*Node, 0, c.count)
	for _, n := range c.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// Allows reports whether the cgroup may allocate on the node. Always false
// after Destroy.
func (c *CGroup) Allows(id int) bool {
	c.reg.mu.Lock()
	defer c.reg.mu.Unlock()
	return !c.dead && c.member(id)
}

// member reports whether node id is in the cgroup. Caller holds reg.mu.
func (c *CGroup) member(id int) bool {
	return id >= 0 && id < len(c.nodes) && c.nodes[id] != nil
}

// add makes n a member, claiming it for the cgroup if it is guest-reserved;
// adding a member again changes nothing. Caller holds reg.mu and has
// validated the claim.
func (c *CGroup) add(n *Node) {
	if c.nodes[n.ID] == nil {
		c.count++
	}
	c.nodes[n.ID] = n
	if n.Kind == GuestReserved {
		c.reg.owner[n.ID] = c
	}
}

// remove drops node id from the cgroup, releasing its ownership; removing a
// non-member changes nothing. Caller holds reg.mu.
func (c *CGroup) remove(id int) {
	if n := c.nodes[id]; n != nil {
		if n.Kind == GuestReserved {
			c.reg.owner[id] = nil
		}
		c.nodes[id] = nil
		c.count--
	}
}

// Registry tracks control groups and exclusive node ownership. All methods
// are safe for concurrent use: VM lifecycle operations race on it, and the
// exclusive-ownership check is the isolation invariant, so it must be
// atomic with the commit.
type Registry struct {
	mu      sync.Mutex
	topo    *Topology
	cgroups map[string]*CGroup
	owner   []*CGroup // by node ID: the cgroup owning a guest-reserved node, nil if unowned
}

// NewRegistry builds a registry over a complete topology: a node added to
// it later is unknown to the registry.
func NewRegistry(topo *Topology) *Registry {
	return &Registry{topo: topo, cgroups: make(map[string]*CGroup), owner: make([]*CGroup, len(topo.nodes))}
}

// Create makes a control group with exclusive access to the given
// guest-reserved nodes (§5.3). Host- and EPT-reserved nodes may be shared
// across cgroups; guest-reserved nodes must be unowned. A repeated ID is one
// node.
func (r *Registry) Create(name string, nodeIDs []int) (*CGroup, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.cgroups[name]; dup {
		return nil, fmt.Errorf("numa: cgroup %q already exists", name)
	}
	for _, id := range nodeIDs {
		if err := r.claim(id); err != nil {
			return nil, err
		}
	}
	// Commit ownership only after all checks pass.
	cg := &CGroup{Name: name, reg: r, nodes: make([]*Node, len(r.owner))}
	for _, id := range nodeIDs {
		cg.add(r.topo.nodes[id])
	}
	r.cgroups[name] = cg
	return cg, nil
}

// claim validates that a node may join a cgroup: it exists, and if it is
// guest-reserved no cgroup owns it. Caller holds r.mu.
func (r *Registry) claim(id int) error {
	if id < 0 || id >= len(r.owner) {
		return fmt.Errorf("numa: no node %d", id)
	}
	if owner := r.owner[id]; owner != nil {
		return fmt.Errorf("numa: guest node %d already reserved by cgroup %q", id, owner.Name)
	}
	return nil
}

// Expand atomically adds nodes to an existing cgroup — the migration
// engine's node-adoption step: during a live move the VM's mems_allowed
// covers both the source and destination subarray groups, and exclusive
// ownership guarantees the widened domain still overlaps no other tenant.
// A repeated ID is one node.
func (r *Registry) Expand(name string, nodeIDs []int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cg, ok := r.cgroups[name]
	if !ok {
		return fmt.Errorf("numa: no cgroup %q", name)
	}
	for _, id := range nodeIDs {
		if cg.member(id) {
			return fmt.Errorf("numa: node %d already in cgroup %q", id, name)
		}
		if err := r.claim(id); err != nil {
			return err
		}
	}
	for _, id := range nodeIDs {
		cg.add(r.topo.nodes[id])
	}
	return nil
}

// Shrink atomically removes nodes from a cgroup, releasing their exclusive
// ownership — the migration engine's source-release step after the VM's
// pages have left the old subarray groups. A repeated ID is one node.
func (r *Registry) Shrink(name string, nodeIDs []int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cg, ok := r.cgroups[name]
	if !ok {
		return fmt.Errorf("numa: no cgroup %q", name)
	}
	for _, id := range nodeIDs {
		if !cg.member(id) {
			return fmt.Errorf("numa: node %d not in cgroup %q", id, name)
		}
	}
	for _, id := range nodeIDs {
		cg.remove(id)
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
	for id := range cg.nodes {
		cg.remove(id)
	}
	cg.dead = true
	delete(r.cgroups, name)
	return nil
}

// Len counts the live cgroups.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cgroups)
}

// OwnerOf returns the cgroup owning a guest-reserved node, if any.
func (r *Registry) OwnerOf(nodeID int) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if nodeID < 0 || nodeID >= len(r.owner) || r.owner[nodeID] == nil {
		return "", false
	}
	return r.owner[nodeID].Name, true
}

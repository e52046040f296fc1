package numa

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// mapCGroup and mapRegistry are the registry the dense one replaced, kept
// verbatim as the reference: membership and ownership in maps keyed by node
// ID, Nodes sorting the member map on every call.
type mapCGroup struct {
	Name  string
	reg   *mapRegistry
	nodes map[int]*Node
	dead  bool // set by Registry.Destroy; the handle must not look live
}

func (c *mapCGroup) Nodes() []*Node {
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

func (c *mapCGroup) Allows(id int) bool {
	c.reg.mu.Lock()
	defer c.reg.mu.Unlock()
	if c.dead {
		return false
	}
	_, ok := c.nodes[id]
	return ok
}

type mapRegistry struct {
	mu      sync.Mutex
	topo    *Topology
	cgroups map[string]*mapCGroup
	owner   map[int]string // guest node ID -> cgroup name
}

func newMapRegistry(topo *Topology) *mapRegistry {
	return &mapRegistry{topo: topo, cgroups: make(map[string]*mapCGroup), owner: make(map[int]string)}
}

func (r *mapRegistry) Create(name string, nodeIDs []int) (*mapCGroup, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.cgroups[name]; dup {
		return nil, fmt.Errorf("numa: cgroup %q already exists", name)
	}
	cg := &mapCGroup{Name: name, reg: r, nodes: make(map[int]*Node)}
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

func (r *mapRegistry) claim(name string, id int) (*Node, error) {
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

func (r *mapRegistry) Expand(name string, nodeIDs []int) error {
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

func (r *mapRegistry) Shrink(name string, nodeIDs []int) error {
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

func (r *mapRegistry) Destroy(name string) error {
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

func (r *mapRegistry) OwnerOf(nodeID int) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name, ok := r.owner[nodeID]
	return name, ok
}

// Registry ops the fuzzer decodes: one byte each for the op, the cgroup name
// and the ID count, then one byte per ID.
const (
	regCreate = iota
	regExpand
	regShrink
	regDestroy
	regOwnerOf
	regAllows
	regNodes
	regOps
)

// regNames includes the empty name: an owner must not read as "unowned"
// because its cgroup is called "".
var regNames = []string{"a", "b", ""}

// regID maps a byte onto -1..7: the six nodes of testTopology and an
// out-of-range ID on each side.
func regID(b byte) int { return int(b%9) - 1 }

// FuzzRegistryMatchesMap drives the dense registry and the map-backed one it
// replaced through the same Create/Expand/Shrink/Destroy/OwnerOf/Allows/Nodes
// sequence over a mixed host/guest/EPT topology, and requires every answer to
// match: each error against nil, each owner and membership answer, each node
// list in ID order. After every op it also compares every node's owner.
// Decoded ID lists may repeat an ID and reach out of range; host node 0 may
// join both cgroups; a handle stays live in the test after Destroy, so Allows
// and Nodes are asked of dead handles too.
func FuzzRegistryMatchesMap(f *testing.F) {
	for _, seed := range [][]byte{
		// A Shrink must release ownership: Create a{1,2}, Shrink a{1}.
		{regCreate, 0, 2, 2, 3, regShrink, 0, 1, 2, regOwnerOf, 0, 1, 2},
		// A failing Expand commits nothing: Create a{1}, Create b{}, Expand
		// b{2,1} fails on node 1 and must leave node 2 unowned.
		{regCreate, 0, 1, 2, regCreate, 1, 0, regExpand, 1, 2, 3, 2, regOwnerOf, 0, 1, 3},
		// Nodes in ID order whatever the claim order: Create a{5,2,0}, then
		// Expand a{1} and Nodes(a).
		{regCreate, 0, 3, 6, 3, 1, regExpand, 0, 1, 2, regNodes, 0, 0},
		// Repeated and out-of-range IDs, the host node shared by two cgroups,
		// a repeated ID in Expand and in Shrink, and a dead handle: Create
		// a{1,1,0}, Create b{0,7} fails, Create b{0}, Expand a{5,5}, Shrink
		// a{1,1}, Destroy a, Allows(a, 1), Nodes(a), Create ""{1}, Nodes("").
		{regCreate, 0, 3, 2, 2, 1, regCreate, 1, 2, 1, 8, regCreate, 1, 1, 1,
			regExpand, 0, 2, 6, 6, regShrink, 0, 2, 2, 2, regDestroy, 0, 0,
			regAllows, 0, 1, 2, regNodes, 0, 0, regCreate, 2, 1, 2, regNodes, 2, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		topo := testTopology(t)
		got, want := NewRegistry(topo), newMapRegistry(topo)
		type handles struct {
			got  *CGroup
			want *mapCGroup
		}
		held := make(map[string]handles) // the last handle Create gave each name, kept past Destroy
		sameErr := func(step int, op func() string, gotErr, wantErr error) {
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("step %d %s: got error %v, reference %v", step, op(), gotErr, wantErr)
			}
		}
		for step := 0; len(data) >= 3; step++ {
			op, name, n := int(data[0])%regOps, regNames[int(data[1])%len(regNames)], int(data[2])%4
			data = data[3:]
			n = min(n, len(data))
			ids := make([]int, n)
			for i := range ids {
				ids[i] = regID(data[i])
			}
			data = data[n:]
			desc := func() string { return fmt.Sprintf("op %d on %q with %v", op, name, ids) }
			switch op {
			case regCreate:
				g, gerr := got.Create(name, ids)
				w, werr := want.Create(name, ids)
				sameErr(step, desc, gerr, werr)
				if gerr == nil {
					held[name] = handles{g, w}
				}
			case regExpand:
				sameErr(step, desc, got.Expand(name, ids), want.Expand(name, ids))
			case regShrink:
				// The reference dereferences the entry its first pass deleted
				// when an ID repeats; the dense Shrink treats the list as a set,
				// so the reference is asked the set.
				var set []int
				for _, id := range ids {
					if !slices.Contains(set, id) {
						set = append(set, id)
					}
				}
				sameErr(step, desc, got.Shrink(name, ids), want.Shrink(name, set))
			case regDestroy:
				sameErr(step, desc, got.Destroy(name), want.Destroy(name))
			case regOwnerOf:
				for _, id := range ids {
					gn, gok := got.OwnerOf(id)
					wn, wok := want.OwnerOf(id)
					if gn != wn || gok != wok {
						t.Fatalf("step %d %s: OwnerOf(%d) = %q, %v; reference %q, %v", step, desc(), id, gn, gok, wn, wok)
					}
				}
			case regAllows:
				h, ok := held[name]
				for _, id := range ids {
					if g, w := ok && h.got.Allows(id), ok && h.want.Allows(id); g != w {
						t.Fatalf("step %d %s: Allows(%d) = %v, reference %v", step, desc(), id, g, w)
					}
				}
			case regNodes:
				h, ok := held[name]
				if !ok {
					continue
				}
				g, w := h.got.Nodes(), h.want.Nodes()
				if (g == nil) != (w == nil) || len(g) != len(w) || len(g) != cap(g) {
					t.Fatalf("step %d %s: Nodes() = %v (cap %d), reference %v", step, desc(), g, cap(g), w)
				}
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("step %d %s: Nodes()[%d] = node %d, reference node %d", step, desc(), i, g[i].ID, w[i].ID)
					}
				}
			}
			for id := -1; id <= 7; id++ {
				gn, gok := got.OwnerOf(id)
				wn, wok := want.OwnerOf(id)
				if gn != wn || gok != wok {
					t.Fatalf("step %d %s: OwnerOf(%d) = %q, %v; reference %q, %v", step, desc(), id, gn, gok, wn, wok)
				}
			}
		}
	})
}

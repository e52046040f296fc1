package numa

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/subarray"
)

func mkRange(start, size uint64) subarray.Range {
	return subarray.Range{Start: start, End: start + size}
}

func testTopology(t *testing.T) *Topology {
	t.Helper()
	topo := &Topology{}
	// Socket 0: host node + 2 guest nodes + ept node.
	mustAdd := func(n *Node) *Node {
		t.Helper()
		added, err := topo.AddNode(n)
		if err != nil {
			t.Fatal(err)
		}
		return added
	}
	mustAdd(&Node{Kind: HostReserved, Socket: 0, Groups: []int{0},
		Ranges: []subarray.Range{mkRange(0, 1<<20)}, Cores: []int{0, 1}})
	mustAdd(&Node{Kind: GuestReserved, Socket: 0, Groups: []int{1},
		Ranges: []subarray.Range{mkRange(1<<20, 1<<20)}})
	mustAdd(&Node{Kind: GuestReserved, Socket: 0, Groups: []int{2},
		Ranges: []subarray.Range{mkRange(2<<20, 1<<20)}})
	mustAdd(&Node{Kind: EPTReserved, Socket: 0,
		Ranges: []subarray.Range{mkRange(3<<20, 64<<10)}})
	// Socket 1: host + guest.
	mustAdd(&Node{Kind: HostReserved, Socket: 1, Groups: []int{0},
		Ranges: []subarray.Range{mkRange(16<<20, 1<<20)}, Cores: []int{2, 3}})
	mustAdd(&Node{Kind: GuestReserved, Socket: 1, Groups: []int{1},
		Ranges: []subarray.Range{mkRange(17<<20, 1<<20)}})
	return topo
}

func TestTopologyBasics(t *testing.T) {
	topo := testTopology(t)
	if len(topo.Nodes()) != 6 {
		t.Fatalf("node count = %d, want 6", len(topo.Nodes()))
	}
	n0, err := topo.Node(0)
	if err != nil || n0.Kind != HostReserved {
		t.Fatalf("node 0: %v, %v", n0, err)
	}
	if _, err := topo.Node(99); err == nil {
		t.Error("Node(99) should fail")
	}
	if _, err := topo.AddNode(&Node{Kind: HostReserved}); err == nil {
		t.Error("rangeless node accepted")
	}
}

func TestNodeContainsAndBytes(t *testing.T) {
	topo := testTopology(t)
	n, _ := topo.Node(1)
	if n.Bytes() != 1<<20 {
		t.Errorf("Bytes = %d", n.Bytes())
	}
	if !n.Contains(1<<20) || n.Contains(0) || n.Contains(2<<20) {
		t.Error("Contains boundaries wrong")
	}
}

func TestNodesOnSocketAndKind(t *testing.T) {
	topo := testTopology(t)
	if got := len(topo.NodesOnSocket(0)); got != 4 {
		t.Errorf("socket 0 nodes = %d, want 4", got)
	}
	if got := len(topo.NodesOnSocket(0, GuestReserved)); got != 2 {
		t.Errorf("socket 0 guest nodes = %d, want 2", got)
	}
	if got := len(topo.NodesOfKind(EPTReserved)); got != 1 {
		t.Errorf("ept nodes = %d, want 1", got)
	}
	// Guest nodes are memory-only (§5.2).
	for _, n := range topo.NodesOfKind(GuestReserved) {
		if len(n.Cores) != 0 {
			t.Errorf("guest node %d has cores %v", n.ID, n.Cores)
		}
	}
	// Host nodes carry their socket's cores.
	for _, n := range topo.NodesOfKind(HostReserved) {
		if len(n.Cores) == 0 {
			t.Errorf("host node %d has no cores", n.ID)
		}
	}
}

// TestTopologyReadsAllocateOnce: the filtered reads count their nodes, then
// make one slice of exactly that size; appending into a growing slice would
// allocate again at every doubling.
func TestTopologyReadsAllocateOnce(t *testing.T) {
	topo := testTopology(t)
	for _, tc := range []struct {
		name string
		read func() []*Node
		want int
	}{
		{"NodesOfKind", func() []*Node { return topo.NodesOfKind(GuestReserved) }, 3},
		{"NodesOnSocket", func() []*Node { return topo.NodesOnSocket(0) }, 4},
		{"NodesOnSocket/kinds", func() []*Node { return topo.NodesOnSocket(0, GuestReserved, EPTReserved) }, 3},
	} {
		if got := tc.read(); len(got) != tc.want || cap(got) != tc.want {
			t.Errorf("%s: len %d cap %d, want %d", tc.name, len(got), cap(got), tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = tc.read() }); allocs != 1 {
			t.Errorf("%s: %v allocs per call, want 1", tc.name, allocs)
		}
	}
}

func TestNodeOfAndPhysicalMapping(t *testing.T) {
	topo := testTopology(t)
	n, ok := topo.NodeOf(17 << 20)
	if !ok || n.ID != 5 {
		t.Fatalf("NodeOf(17M) = %v, %v", n, ok)
	}
	if _, ok := topo.NodeOf(1 << 30); ok {
		t.Error("NodeOf found a node for unowned pa")
	}
	// A logical node maps to its physical node (§5.2): the socket it lies on.
	if n, err := topo.Node(5); err != nil || n.Socket != 1 {
		t.Errorf("Node(5) = %v, %v; want a node on socket 1", n, err)
	}
	if _, err := topo.Node(-1); err == nil {
		t.Error("Node(-1) should fail")
	}
}

func TestCGroupExclusiveGuestOwnership(t *testing.T) {
	topo := testTopology(t)
	reg := NewRegistry(topo)
	cg1, err := reg.Create("vm0", []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !cg1.Allows(1) || cg1.Allows(2) {
		t.Error("cgroup membership wrong")
	}
	// Same guest node cannot be reserved twice.
	if _, err := reg.Create("vm1", []int{1}); err == nil {
		t.Fatal("double reservation of guest node accepted")
	}
	// Host node can be shared.
	if _, err := reg.Create("hostA", []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("hostB", []int{0}); err != nil {
		t.Fatal(err)
	}
	// Failed creation must not leak ownership: node 2 was in the failing
	// request below, and must remain reservable.
	if _, err := reg.Create("bad", []int{2, 1}); err == nil {
		t.Fatal("expected failure")
	}
	if _, err := reg.Create("vm2", []int{2}); err != nil {
		t.Fatalf("node 2 leaked ownership from failed create: %v", err)
	}
}

func TestCGroupDestroyReleasesNodes(t *testing.T) {
	topo := testTopology(t)
	reg := NewRegistry(topo)
	if _, err := reg.Create("vm0", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if owner, ok := reg.OwnerOf(1); !ok || owner != "vm0" {
		t.Errorf("OwnerOf(1) = %q, %v", owner, ok)
	}
	if err := reg.Destroy("vm0"); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.OwnerOf(1); ok {
		t.Error("ownership survived destroy")
	}
	if _, err := reg.Create("vm1", []int{1}); err != nil {
		t.Errorf("node not reusable after destroy: %v", err)
	}
	if err := reg.Destroy("nope"); err == nil {
		t.Error("destroying unknown cgroup should fail")
	}
}

func TestRegistryDuplicateName(t *testing.T) {
	topo := testTopology(t)
	reg := NewRegistry(topo)
	if _, err := reg.Create("x", []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("x", []int{2}); err == nil {
		t.Error("duplicate cgroup name accepted")
	}
	if cg := mustGet(t, reg, "x"); cg.Name != "x" {
		t.Errorf("cgroup x is named %q", cg.Name)
	}
	if nodes := mustGet(t, reg, "x").Nodes(); len(nodes) != 1 || nodes[0].ID != 1 {
		t.Errorf("Nodes() = %v", nodes)
	}
}

func mustGet(t *testing.T, r *Registry, name string) *CGroup {
	t.Helper()
	r.mu.Lock()
	cg, ok := r.cgroups[name]
	r.mu.Unlock()
	if !ok {
		t.Fatalf("cgroup %q missing", name)
	}
	return cg
}

func TestNodeKindString(t *testing.T) {
	for k, want := range map[NodeKind]string{HostReserved: "host", GuestReserved: "guest", EPTReserved: "ept", NodeKind(9): "invalid"} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q", k, got)
		}
	}
}

func TestRegistryExpandShrink(t *testing.T) {
	topo := &Topology{}
	var ids []int
	for i := 0; i < 4; i++ {
		n, err := topo.AddNode(&Node{Kind: GuestReserved, Socket: 0,
			Ranges: []subarray.Range{{Start: uint64(i) << 30, End: uint64(i+1) << 30}}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, n.ID)
	}
	r := NewRegistry(topo)
	cg, err := r.Create("vm:a", ids[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("vm:b", ids[1:2]); err != nil {
		t.Fatal(err)
	}

	// Adoption: vm:a grows onto nodes 2 and 3 during a migration.
	if err := r.Expand("vm:a", ids[2:4]); err != nil {
		t.Fatal(err)
	}
	if got := len(cg.Nodes()); got != 3 {
		t.Fatalf("after Expand cgroup has %d nodes, want 3", got)
	}
	if owner, ok := r.OwnerOf(ids[2]); !ok || owner != "vm:a" {
		t.Fatalf("node %d owner = %q, %v", ids[2], owner, ok)
	}

	// Exclusivity holds during the widened-domain window.
	if err := r.Expand("vm:b", ids[2:3]); err == nil {
		t.Fatal("Expand onto an owned node must fail")
	}
	if err := r.Expand("vm:a", ids[1:2]); err == nil {
		t.Fatal("Expand onto another tenant's node must fail")
	}
	// A failed multi-node expand must commit nothing.
	if err := r.Expand("vm:b", []int{ids[3], ids[1]}); err == nil {
		t.Fatal("partial Expand must fail")
	} else if owner, _ := r.OwnerOf(ids[3]); owner != "vm:a" {
		t.Fatalf("failed Expand leaked ownership of node %d to %q", ids[3], owner)
	}

	// Source release after the move.
	if err := r.Shrink("vm:a", ids[:1]); err != nil {
		t.Fatal(err)
	}
	if _, owned := r.OwnerOf(ids[0]); owned {
		t.Fatal("Shrink did not release node ownership")
	}
	if cg.Allows(ids[0]) {
		t.Fatal("Shrink left node in cgroup")
	}
	if err := r.Shrink("vm:a", ids[:1]); err == nil {
		t.Fatal("Shrink of a non-member node must fail")
	}
	// The released node is reclaimable by another tenant.
	if err := r.Expand("vm:b", ids[:1]); err != nil {
		t.Fatalf("released node not reclaimable: %v", err)
	}
}

// TestDestroyedCGroupHandleIsDead: a handle retained across Destroy must
// not keep answering as if the reservation were live — the planner would
// see freed nodes as owned capacity.
func TestDestroyedCGroupHandleIsDead(t *testing.T) {
	topo := testTopology(t)
	reg := NewRegistry(topo)
	cg, err := reg.Create("vm:stale", []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if cg.dead {
		t.Fatal("fresh cgroup reports dead")
	}
	if err := reg.Destroy("vm:stale"); err != nil {
		t.Fatal(err)
	}
	if !cg.dead {
		t.Error("destroyed cgroup does not report dead")
	}
	if nodes := cg.Nodes(); len(nodes) != 0 {
		t.Errorf("destroyed cgroup still lists %d nodes", len(nodes))
	}
	if cg.Allows(1) {
		t.Error("destroyed cgroup still allows allocation on node 1")
	}
	// The released nodes are genuinely reusable.
	if _, err := reg.Create("vm:next", []int{1, 2}); err != nil {
		t.Errorf("released nodes not reusable: %v", err)
	}
}

// TestConcurrentExpandShrinkExclusive is the registry half of the
// partial-release property: under any concurrent interleaving of
// Create/Expand/Shrink/Destroy (the balloon's inflate/deflate and the
// migration engine's adopt/release), no guest node is ever granted to two
// cgroups at once.
func TestConcurrentExpandShrinkExclusive(t *testing.T) {
	topo := testTopology(t)
	reg := NewRegistry(topo)
	guestNodes := []int{1, 2, 5}

	// claims is an independent double-grant detector: a successful
	// Expand/Create claims the node here, a Shrink/Destroy releases it.
	var claimsMu sync.Mutex
	claims := map[int]string{}
	claim := func(name string, id int) {
		claimsMu.Lock()
		defer claimsMu.Unlock()
		if prev, dup := claims[id]; dup {
			t.Errorf("node %d granted to %q while held by %q", id, name, prev)
		}
		claims[id] = name
	}
	release := func(id int) {
		claimsMu.Lock()
		defer claimsMu.Unlock()
		delete(claims, id)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("vm:w%d", w)
			rng := rand.New(rand.NewSource(int64(w) + 42))
			if _, err := reg.Create(name, nil); err != nil {
				t.Error(err)
				return
			}
			held := map[int]bool{}
			for i := 0; i < 200; i++ {
				id := guestNodes[rng.Intn(len(guestNodes))]
				if held[id] {
					// Release the detector claim first: the instant
					// Shrink commits, another worker may legitimately
					// claim the node.
					release(id)
					if err := reg.Shrink(name, []int{id}); err != nil {
						t.Errorf("shrink of held node %d: %v", id, err)
					}
					delete(held, id)
				} else if err := reg.Expand(name, []int{id}); err == nil {
					claim(name, id)
					held[id] = true
				}
			}
			for id := range held {
				release(id)
			}
			if err := reg.Destroy(name); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()

	// All nodes released: the pool is whole again.
	for _, id := range guestNodes {
		if owner, owned := reg.OwnerOf(id); owned {
			t.Errorf("node %d still owned by %q after all cgroups died", id, owner)
		}
	}
	if _, err := reg.Create("vm:final", guestNodes); err != nil {
		t.Errorf("full pool not reusable: %v", err)
	}
}

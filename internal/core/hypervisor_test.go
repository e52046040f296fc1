package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/numa"
	"repro/internal/subarray"
)

// testGeometry: 2 sockets x 16 banks x 2048 rows = 512 MiB total; 512-row
// subarrays give 4 subarray groups of 64 MiB per socket.
func testGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets:         2,
		CoresPerSocket:  4,
		DIMMsPerSocket:  1,
		RanksPerDIMM:    2,
		BanksPerRank:    8,
		RowsPerBank:     2048,
		RowBytes:        8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

// testProfile: deterministic, no TRR, every row vulnerable, no transforms.
func testProfile() dram.Profile {
	p := dram.ProfileF()
	p.VulnerableRowFraction = 1
	p.WeakCellsPerRow = 3
	p.HammerThreshold = 5000
	p.Transforms = addr.TransformConfig{}
	return p
}

func testConfig() Config {
	return Config{
		Geometry:      testGeometry(),
		Profiles:      []dram.Profile{testProfile()},
		EPTProtection: ept.GuardRows,
	}
}

func bootSiloz(t *testing.T) *Hypervisor {
	t.Helper()
	h, err := Boot(testConfig(), ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func bootBaseline(t *testing.T) *Hypervisor {
	t.Helper()
	h, err := Boot(testConfig(), ModeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func kvmProc() Process { return Process{CGroup: "kvm", KVMPrivileged: true} }

// zeroBlock is what allZero compares a buffer against, one block at a time.
var zeroBlock [64 * geometry.KiB]byte

// allZero reports whether a probe buffer read back as scrubbed.
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroBlock))
		if !bytes.Equal(b[:n], zeroBlock[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

func TestBootSilozTopology(t *testing.T) {
	h := bootSiloz(t)
	g := testGeometry()
	topo := h.Topology()

	// Per socket: 1 host + 1 EPT + 3 guest nodes.
	if got := len(topo.Nodes()); got != g.Sockets*5 {
		t.Fatalf("nodes = %d, want %d", got, g.Sockets*5)
	}
	for s := 0; s < g.Sockets; s++ {
		host := topo.NodesOnSocket(s, numa.HostReserved)
		guests := topo.NodesOnSocket(s, numa.GuestReserved)
		epts := topo.NodesOnSocket(s, numa.EPTReserved)
		if len(host) != 1 || len(guests) != 3 || len(epts) != 1 {
			t.Fatalf("socket %d: host=%d guests=%d epts=%d", s, len(host), len(guests), len(epts))
		}
		// §5.2: host nodes carry the socket's cores; guest nodes are
		// memory-only.
		if len(host[0].Cores) != g.CoresPerSocket {
			t.Errorf("host node has %d cores", len(host[0].Cores))
		}
		for _, n := range guests {
			if len(n.Cores) != 0 {
				t.Errorf("guest node %d has cores", n.ID)
			}
			if n.Bytes() != uint64(g.SubarrayGroupBytes()) {
				t.Errorf("guest node %d has %d bytes, want one subarray group (%d)",
					n.ID, n.Bytes(), g.SubarrayGroupBytes())
			}
		}
		// EPT node: exactly one row group (§5.4).
		if epts[0].Bytes() != uint64(g.RowGroupBytes()) {
			t.Errorf("EPT node has %d bytes, want %d", epts[0].Bytes(), g.RowGroupBytes())
		}
		// Logical-to-physical mapping preserved.
		if n, err := topo.Node(guests[0].ID); err != nil || n.Socket != s {
			t.Errorf("Node(%d) = %v, %v; want a node on socket %d", guests[0].ID, n, err, s)
		}
	}
}

func TestBootSilozEPTBlockAccounting(t *testing.T) {
	h := bootSiloz(t)
	g := testGeometry()
	// Guard rows: (b-1) row groups per socket offlined.
	var guardBytes uint64
	for _, r := range h.OfflinedRanges() {
		guardBytes += r.Bytes()
	}
	want := uint64(EPTBlockRowGroups-1) * uint64(g.RowGroupBytes()) * uint64(g.Sockets)
	if guardBytes != want {
		t.Errorf("offlined bytes = %d, want %d", guardBytes, want)
	}
	// Paper's headline figure: ~0.024% of each bank reserved for
	// EPT+guards; here 32 rows of 2048 = ~1.6% on the tiny bank, so just
	// verify block size = 32 rows per bank.
	frac := float64(EPTBlockRowGroups) / float64(g.RowsPerBank)
	if frac != 32.0/2048 {
		t.Errorf("block fraction %v", frac)
	}

	// Host node + EPT node + guards = host group capacity.
	for s := 0; s < g.Sockets; s++ {
		host := h.Topology().NodesOnSocket(s, numa.HostReserved)[0]
		eptN, err := h.EPTNode(s)
		if err != nil {
			t.Fatal(err)
		}
		total := host.Bytes() + eptN.Bytes() + uint64(EPTBlockRowGroups-1)*uint64(g.RowGroupBytes())
		if total != uint64(g.SubarrayGroupBytes()) {
			t.Errorf("socket %d host+ept+guards = %d, want %d", s, total, g.SubarrayGroupBytes())
		}
	}
}

func TestBootSilozPaperScaleGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("full-geometry boot in -short mode")
	}
	h, err := Boot(Config{EPTProtection: ept.GuardRows}, ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	g := h.Layout().Geometry()
	// 128 groups per socket; 127 guest nodes per socket.
	guests := h.Topology().NodesOfKind(numa.GuestReserved)
	if len(guests) != 2*127 {
		t.Errorf("guest nodes = %d, want 254", len(guests))
	}
	for _, n := range guests[:3] {
		if n.Bytes() != uint64(3*geometry.GiB/2) {
			t.Errorf("guest node bytes = %d, want 1.5 GiB", n.Bytes())
		}
	}
	// §5.4: EPT block reserves ~0.024% of each bank.
	frac := float64(EPTBlockRowGroups) * float64(g.RowBytes) / float64(g.BankBytes())
	if frac < 0.0002 || frac > 0.0003 {
		t.Errorf("EPT block fraction %.6f, want ~0.00024", frac)
	}
}

func TestBootBaselineTopology(t *testing.T) {
	h := bootBaseline(t)
	topo := h.Topology()
	if got := len(topo.Nodes()); got != 2 {
		t.Fatalf("baseline nodes = %d, want 2 (one per socket)", got)
	}
	for _, n := range topo.Nodes() {
		if n.Kind != numa.HostReserved {
			t.Errorf("baseline node %d kind %v", n.ID, n.Kind)
		}
		if n.Bytes() != uint64(testGeometry().SocketBytes()) {
			t.Errorf("baseline node bytes = %d", n.Bytes())
		}
	}
	if len(h.OfflinedRanges()) != 0 {
		t.Error("baseline should not offline anything")
	}
	if _, err := h.EPTNode(0); err == nil {
		t.Error("baseline should have no EPT node")
	}
}

func TestCreateVMRequiresPrivilege(t *testing.T) {
	h := bootSiloz(t)
	_, err := h.CreateVM(Process{}, VMSpec{Name: "v", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err == nil {
		t.Fatal("unprivileged CreateVM accepted (§5.3 requires KVM privilege)")
	}
}

func TestCreateVMSpecValidation(t *testing.T) {
	h := bootSiloz(t)
	cases := []VMSpec{
		{Name: "a", Socket: 0, MemoryBytes: 0},
		{Name: "b", Socket: 0, MemoryBytes: geometry.PageSize2M + 1},
		{Name: "c", Socket: 9, MemoryBytes: geometry.PageSize2M},
		{Name: "d", Socket: 0, MemoryBytes: geometry.PageSize2M, MediatedBytes: 100},
	}
	for _, spec := range cases {
		if _, err := h.CreateVM(kvmProc(), spec); err == nil {
			t.Errorf("bad spec %+v accepted", spec)
		}
	}
}

func TestCreateVMSilozPlacement(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{
		Name: "tenant0", Socket: 0, MemoryBytes: 64 * geometry.MiB,
		VCPUs: 2, MediatedBytes: 64 * geometry.KiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(vm.Nodes()); got != 1 {
		t.Fatalf("VM owns %d nodes, want 1 (64 MiB / 64 MiB groups)", got)
	}
	// Every RAM page is inside the VM's domain.
	for _, hpa := range vm.RAMPages() {
		if !vm.InDomain(hpa) {
			t.Errorf("RAM page %#x outside the VM's subarray groups", hpa)
		}
		if !vm.OwnsHPA(hpa) {
			t.Errorf("OwnsHPA(%#x) = false", hpa)
		}
	}
	if got := len(vm.RAMPages()); got != 32 {
		t.Errorf("RAM pages = %d, want 32", got)
	}
	// EPT pages live in the EPT node (GuardRows protection).
	eptNode, err := h.EPTNode(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pa := range vm.Tables().Pages() {
		if !eptNode.Contains(pa) {
			t.Errorf("EPT page %#x outside the EPT node", pa)
		}
	}
	// Mediated pages live in the host node, not the VM's domain (§5.1).
	hostNode := h.Topology().NodesOnSocket(0, numa.HostReserved)[0]
	for _, pa := range vm.MediatedPages() {
		if !hostNode.Contains(pa) {
			t.Errorf("mediated page %#x outside host node", pa)
		}
		if vm.InDomain(pa) {
			t.Errorf("mediated page %#x inside guest domain", pa)
		}
	}
	// Exclusive ownership via cgroup.
	if owner, ok := h.Registry().OwnerOf(vm.Nodes()[0].ID); !ok || owner != "vm:tenant0" {
		t.Errorf("node owner = %q, %v", owner, ok)
	}
}

func TestTwoVMsDisjointDomains(t *testing.T) {
	h := bootSiloz(t)
	a, err := h.CreateVM(kvmProc(), VMSpec{Name: "a", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.CreateVM(kvmProc(), VMSpec{Name: "b", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes()[0].ID == b.Nodes()[0].ID {
		t.Fatal("two VMs share a guest-reserved node")
	}
	for _, hpa := range b.RAMPages() {
		if a.InDomain(hpa) {
			t.Errorf("VM b page %#x inside VM a's domain", hpa)
		}
	}
}

func TestVMExhaustionAndMultiNode(t *testing.T) {
	h := bootSiloz(t)
	// 3 guest nodes of 64 MiB on socket 0; a 128 MiB VM takes 2.
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "big", Socket: 0, MemoryBytes: 128 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if len(vm.Nodes()) != 2 {
		t.Fatalf("VM owns %d nodes, want 2", len(vm.Nodes()))
	}
	// 128 MiB more does not fit in the remaining 64 MiB node.
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "big2", Socket: 0, MemoryBytes: 128 * geometry.MiB}); !errors.Is(err, ErrCapacityExhausted) {
		t.Fatalf("over-provisioning: err = %v, want ErrCapacityExhausted", err)
	}
	// But the other socket is free.
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "big3", Socket: 1, MemoryBytes: 128 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
}

func TestDestroyVMReleasesResources(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "x", Socket: 0, MemoryBytes: 64 * geometry.MiB, MediatedBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	nodeID := vm.Nodes()[0].ID
	a, err := h.Allocator(nodeID)
	if err != nil {
		t.Fatal(err)
	}
	if a.FreeBytes() != 0 {
		t.Fatalf("node not fully used: %d free", a.FreeBytes())
	}
	if err := h.DestroyVM("x"); err != nil {
		t.Fatal(err)
	}
	if a.FreeBytes() != a.TotalBytes() {
		t.Errorf("node memory not freed: %d of %d", a.FreeBytes(), a.TotalBytes())
	}
	if _, ok := h.Registry().OwnerOf(nodeID); ok {
		t.Error("node still owned after destroy")
	}
	// Node is reusable.
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "x", Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
		t.Fatalf("node not reusable: %v", err)
	}
	if err := h.DestroyVM("nope"); !errors.Is(err, ErrVMNotFound) {
		t.Errorf("destroying unknown VM: err = %v, want ErrVMNotFound", err)
	}
}

func TestDuplicateVMNameRejected(t *testing.T) {
	h := bootSiloz(t)
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "dup", Socket: 0, MemoryBytes: geometry.PageSize2M}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "dup", Socket: 0, MemoryBytes: geometry.PageSize2M}); err == nil {
		t.Error("duplicate VM name accepted")
	}
	if got := len(h.VMs()); got != 1 {
		t.Errorf("VMs() = %d", got)
	}
	if _, ok := h.VM("dup"); !ok {
		t.Error("VM lookup failed")
	}
}

func TestGuestReadWrite(t *testing.T) {
	for _, mode := range []Mode{ModeSiloz, ModeBaseline} {
		h, err := Boot(testConfig(), mode)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "io", Socket: 0, MemoryBytes: 64 * geometry.MiB, MediatedBytes: 8192})
		if err != nil {
			t.Fatal(err)
		}
		data := []byte("siloz subarray group isolation")
		// Spanning a 2 MiB page boundary.
		gpa := uint64(geometry.PageSize2M) - 7
		if err := vm.WriteGuest(gpa, data); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := vm.ReadGuest(gpa, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("mode %v: guest RAM round trip failed", mode)
		}
		// Mediated region I/O (hypervisor-mediated path).
		if err := vm.WriteGuest(MediatedBase+100, data); err != nil {
			t.Fatal(err)
		}
		got2 := make([]byte, len(data))
		if err := vm.ReadGuest(MediatedBase+100, got2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got2, data) {
			t.Errorf("mode %v: mediated round trip failed", mode)
		}
		// Out-of-bounds GPA.
		if err := vm.ReadGuest(uint64(vm.Spec().MemoryBytes)+4096, got); err == nil {
			t.Error("unmapped gpa readable")
		}
	}
}

func TestHammerMediatedRejected(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "h", Socket: 0, MemoryBytes: geometry.PageSize2M, MediatedBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Hammer(MediatedBase, 1000, 0); err == nil {
		t.Fatal("hammering a mediated page must be refused (§5.1)")
	}
}

// attackEdges hammers the first and last row of every contiguous physical
// run of the VM's RAM — the rows adjacent to other tenants' memory.
func attackEdges(t *testing.T, h *Hypervisor, vm *VM, acts int) {
	t.Helper()
	pages := vm.RAMPages()
	runs := make([]subarray.Range, 0, len(pages))
	for _, p := range pages {
		runs = append(runs, subarray.Range{Start: p, End: p + geometry.PageSize2M})
	}
	for _, run := range subarray.Coalesce(runs) {
		for _, pa := range []uint64{run.Start, run.End - geometry.CacheLineSize} {
			if err := h.Memory().ActivatePhys(pa, acts, 0); err != nil {
				t.Fatal(err)
			}
		}
		h.Memory().Refresh() // separate windows to respect ACT budgets
	}
}

func TestSilozContainsInterVMHammering(t *testing.T) {
	// The headline security property (§7.1): hammering from inside a
	// VM's domain never flips bits outside it.
	h := bootSiloz(t)
	attacker, err := h.CreateVM(kvmProc(), VMSpec{Name: "attacker", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := h.CreateVM(kvmProc(), VMSpec{Name: "victim", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	attackEdges(t, h, attacker, 20000)
	flips := h.Memory().Flips()
	if len(flips) == 0 {
		t.Fatal("attack produced no flips; containment test is vacuous")
	}
	for _, f := range flips {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !attacker.InDomain(pa) {
			t.Errorf("flip escaped the attacker's domain: %v at %#x", f, pa)
		}
		if victim.InDomain(pa) {
			t.Errorf("flip landed in the victim's domain: %v", f)
		}
	}
}

func TestBaselineAllowsInterVMHammering(t *testing.T) {
	// The baseline comparison: without subarray awareness, edge-row
	// hammering flips bits outside the attacker's own memory.
	h := bootBaseline(t)
	attacker, err := h.CreateVM(kvmProc(), VMSpec{Name: "attacker", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "victim", Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
	attackEdges(t, h, attacker, 20000)
	escaped := false
	for _, f := range h.Memory().Flips() {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !attacker.OwnsHPA(pa) {
			escaped = true
			break
		}
	}
	if !escaped {
		t.Error("baseline contained all flips; expected inter-VM bit flips")
	}
}

func TestModeString(t *testing.T) {
	if ModeSiloz.String() != "siloz" || ModeBaseline.String() != "baseline" {
		t.Error("Mode.String wrong")
	}
}

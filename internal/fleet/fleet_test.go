package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/geometry"
)

// labGeometry is the fleet test box: 8 subarray groups of 64 MiB per
// socket, carving into 1 host + 1 EPT + 7 guest nodes per socket (14 guest
// nodes, 896 MiB of guest capacity per host).
func labGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets:         2,
		CoresPerSocket:  4,
		DIMMsPerSocket:  1,
		RanksPerDIMM:    2,
		BanksPerRank:    8,
		RowsPerBank:     4096,
		RowBytes:        8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

// labProfile strips the DRAM transforms so subarray groups form without
// padding; disturbance physics is irrelevant to control-plane tests.
func labProfile() dram.Profile {
	p := dram.ProfileF()
	p.Transforms = addr.TransformConfig{}
	return p
}

func labCoreConfig() core.Config {
	return core.Config{Geometry: labGeometry(), Profiles: []dram.Profile{labProfile()}}
}

func testProc() core.Process { return core.Process{CGroup: "kvm", KVMPrivileged: true} }

func testCluster(t testing.TB, hosts int, policy Policy) *Cluster {
	t.Helper()
	c, err := New(Config{
		Hosts:  hosts,
		Core:   labCoreConfig(),
		Policy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func admit(t *testing.T, c *Cluster, name string, bytes uint64) string {
	t.Helper()
	host, err := c.Admit(context.Background(), testProc(), core.VMSpec{
		Name: name, MemoryBytes: bytes, MinMemoryBytes: 64 * geometry.MiB, VCPUs: 1,
	})
	if err != nil {
		t.Fatalf("admit %s (%d MiB): %v", name, bytes/geometry.MiB, err)
	}
	return host
}

// TestViewsAllocationBound: a view costs one slice for the hosts, per host
// its occupancy (two) and its socket slice, and per socket one node slice —
// nothing that grows with the nodes.
func TestViewsAllocationBound(t *testing.T) {
	const hosts = 3
	c := testCluster(t, hosts, FirstFit{})
	admit(t, c, "a", 256*geometry.MiB)
	views, err := c.Views()
	if err != nil {
		t.Fatal(err)
	}
	sockets := labGeometry().Sockets
	for _, hv := range views {
		if len(hv.Sockets) != sockets {
			t.Fatalf("host %s: %d socket views, want %d", hv.Host, len(hv.Sockets), sockets)
		}
		for i, sv := range hv.Sockets {
			if sv.Socket != i || !slices.IsSortedFunc(sv.Nodes, func(a, b NodeView) int { return a.ID - b.ID }) {
				t.Errorf("host %s: socket view %d is socket %d, nodes %v", hv.Host, i, sv.Socket, sv.Nodes)
			}
		}
	}
	want := float64(1 + hosts*(3+sockets))
	if allocs := testing.AllocsPerRun(50, func() { _, _ = c.Views() }); allocs > want {
		t.Errorf("Views: %v allocs per call, want at most %v", allocs, want)
	}
}

func TestClusterAdmitDepart(t *testing.T) {
	c := testCluster(t, 2, FirstFit{})

	hosts := map[string]int{}
	for i := 0; i < 6; i++ {
		h := admit(t, c, fmt.Sprintf("vm-%d", i), 128*geometry.MiB)
		hosts[h]++
	}
	if err := c.AuditIsolation(); err != nil {
		t.Fatalf("audit after admissions: %v", err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	// 6 VMs × 2 nodes each.
	if m.OwnedNodes != 12 || m.VMs != 6 {
		t.Fatalf("metrics: owned=%d vms=%d, want 12/6", m.OwnedNodes, m.VMs)
	}
	if m.GuestNodes != 2*14 {
		t.Fatalf("guest nodes = %d, want 28", m.GuestNodes)
	}
	if got, err := c.HostOf("vm-0"); err != nil || got == "" {
		t.Fatalf("HostOf(vm-0) = %q, %v", got, err)
	}

	// Depart everything.
	for i := 0; i < 6; i++ {
		if _, err := c.SubmitDepart(fmt.Sprintf("vm-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AuditIsolation(); err != nil {
		t.Fatalf("audit after departures: %v", err)
	}
	m, err = c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.OwnedNodes != 0 || m.VMs != 0 || m.StrandedBytes != 0 {
		t.Fatalf("after depart: owned=%d vms=%d stranded=%d, want all 0",
			m.OwnedNodes, m.VMs, m.StrandedBytes)
	}
	s := c.Stats()
	if s.Admitted != 6 || s.Departed != 6 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestClusterResize(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, 1, FirstFit{})
	admit(t, c, "r0", 128*geometry.MiB)

	op, err := c.SubmitResize("r0", 64*geometry.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Wait(ctx); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if err := c.AuditIsolation(); err != nil {
		t.Fatal(err)
	}
	m, _ := c.Metrics()
	if m.OwnedNodes != 1 {
		t.Fatalf("after shrink to 64 MiB: owned nodes = %d, want 1", m.OwnedNodes)
	}
	op, err = c.SubmitResize("r0", 128*geometry.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Wait(ctx); err != nil {
		t.Fatalf("grow: %v", err)
	}
	m, _ = c.Metrics()
	if m.OwnedNodes != 2 {
		t.Fatalf("after grow to 128 MiB: owned nodes = %d, want 2", m.OwnedNodes)
	}
}

func TestCrossHostMove(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, 2, FirstFit{})
	src := admit(t, c, "mv0", 128*geometry.MiB)
	if src != "host-0" {
		t.Fatalf("first-fit placed on %s, want host-0", src)
	}

	// Stamp guest memory so the copy is observable.
	vm, _ := c.Hosts()[0].Hypervisor().VM("mv0")
	stamp := []byte("fleet cross-host migration payload")
	if err := vm.WriteGuest(3*geometry.PageSize2M+512, stamp); err != nil {
		t.Fatal(err)
	}

	rep, err := c.MoveVM(ctx, "mv0", "host-1", 1, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesCopied == 0 || rep.BytesCopied == 0 {
		t.Fatalf("no pages copied: %+v", rep)
	}
	if rep.DowntimeBytes == 0 {
		t.Fatalf("dirty injection should make stop-and-copy non-empty: %+v", rep)
	}
	if got, _ := c.HostOf("mv0"); got != "host-1" {
		t.Fatalf("routing after move: %s, want host-1", got)
	}
	if _, stillThere := c.Hosts()[0].Hypervisor().VM("mv0"); stillThere {
		t.Fatal("source copy not destroyed")
	}
	dvm, ok := c.Hosts()[1].Hypervisor().VM("mv0")
	if !ok {
		t.Fatal("dest copy missing")
	}
	buf := make([]byte, len(stamp))
	if err := dvm.ReadGuest(3*geometry.PageSize2M+512, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(stamp) {
		t.Fatalf("payload lost in move: %q", buf)
	}
	if err := c.AuditIsolation(); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.CrossMoves != 1 || s.DowntimeBytes != rep.DowntimeBytes {
		t.Fatalf("stats: %+v", s)
	}
}

func TestBalloonedCrossHostMove(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, 2, FirstFit{})
	admit(t, c, "b0", 192*geometry.MiB)

	vm, _ := c.Hosts()[0].Hypervisor().VM("b0")
	stamp := []byte("ballooned payload")
	if err := vm.WriteGuest(geometry.PageSize2M+64, stamp); err != nil {
		t.Fatal(err)
	}
	op, err := c.SubmitResize("b0", 64*geometry.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	if _, err := c.MoveVM(ctx, "b0", "host-1", 0, 2, 7); err != nil {
		t.Fatal(err)
	}
	dvm, ok := c.Hosts()[1].Hypervisor().VM("b0")
	if !ok {
		t.Fatal("dest copy missing")
	}
	if got := dvm.Spec().MemoryBytes - dvm.BalloonedBytes(); got != 64*geometry.MiB {
		t.Fatalf("dest usable = %d MiB, want 64", got/geometry.MiB)
	}
	buf := make([]byte, len(stamp))
	if err := dvm.ReadGuest(geometry.PageSize2M+64, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(stamp) {
		t.Fatalf("payload lost: %q", buf)
	}
	if err := c.AuditIsolation(); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerShedsHotHost(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, 2, SilozAware{})
	// Load host-0 to 12/14 owned nodes (util 0.857 > 0.75); host-1 idle.
	// First-fit-style loading via explicit per-host placement: admit with
	// a FirstFit cluster policy would already stack host-0, but be
	// explicit about intent — admit through the cluster and verify.
	for i := 0; i < 6; i++ {
		op, err := c.Hosts()[0].SubmitCreate(testProc(), core.VMSpec{
			Name: fmt.Sprintf("hot-%d", i), MemoryBytes: 128 * geometry.MiB,
			Socket: i % 2, VCPUs: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		c.vmHost[fmt.Sprintf("hot-%d", i)] = "host-0"
		c.procs[fmt.Sprintf("hot-%d", i)] = testProc()
		c.mu.Unlock()
	}

	s := NewScheduler(c, SchedulerConfig{Seed: 5})
	rep, err := s.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HotHosts != 1 {
		t.Fatalf("hot hosts = %d, want 1", rep.HotHosts)
	}
	if rep.CrossMoves == 0 {
		t.Fatalf("scheduler shed nothing: %+v", rep)
	}
	if err := c.AuditIsolation(); err != nil {
		t.Fatal(err)
	}
	m, _ := c.Metrics()
	util0 := m.Hosts[0].Utilization()
	if util0 > 0.86 {
		t.Fatalf("host-0 still at %.2f utilization", util0)
	}
	if m.Hosts[1].VMs == 0 {
		t.Fatal("nothing landed on host-1")
	}
}

func TestTraceDeterminism(t *testing.T) {
	cfg := TraceConfig{
		Seed: 31, Rounds: 10, ArrivalsPerRound: 7,
		VMSizes:     []uint64{64 * geometry.MiB, 128 * geometry.MiB},
		MinLifetime: 1, MaxLifetime: 3, ResizeProb: 0.3,
	}
	a, b := GenerateTrace(cfg), GenerateTrace(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different traces")
	}
	if len(a) != 70 {
		t.Fatalf("trace length %d, want 70", len(a))
	}
	cfg.Seed = 32
	if reflect.DeepEqual(a, GenerateTrace(cfg)) {
		t.Fatal("different seeds produced identical traces")
	}
	resizes := 0
	for _, ar := range a {
		if ar.DepartRound <= ar.Round {
			t.Fatalf("%s departs round %d before arriving round %d", ar.Name, ar.DepartRound, ar.Round)
		}
		if ar.ResizeRound >= 0 {
			resizes++
			if ar.ResizeRound <= ar.Round || ar.ResizeRound >= ar.DepartRound {
				t.Fatalf("%s resize round %d outside (%d, %d)", ar.Name, ar.ResizeRound, ar.Round, ar.DepartRound)
			}
			if ar.ResizeBytes == ar.Bytes {
				t.Fatalf("%s resizes to its own size", ar.Name)
			}
		}
	}
	if resizes == 0 {
		t.Fatal("ResizeProb 0.3 scheduled no resizes")
	}
}

// TestCanceledAdmitLeavesNoUnroutedVM: an Admit whose context is canceled
// creates nothing, so the same name admits cleanly afterwards and no VM is
// live without a route.
func TestCanceledAdmitLeavesNoUnroutedVM(t *testing.T) {
	c := testCluster(t, 1, FirstFit{})
	spec := vmSpec("a", 128*geometry.MiB)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Admit(ctx, testProc(), spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("Admit under a canceled context: %v, want context.Canceled", err)
	}
	if _, err := c.Admit(context.Background(), testProc(), spec); err != nil {
		t.Error(err)
	}
	if err := c.AuditIsolation(); err != nil {
		t.Error(err)
	}
}

func TestHostEventLoopOrdering(t *testing.T) {
	c := testCluster(t, 1, FirstFit{})
	h := c.Hosts()[0]

	// A host's ops run in submission order.
	var order []int
	for i := 0; i < 5; i++ {
		if _, err := h.Submit(func() error {
			order = append(order, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("host FIFO order violated: %v", order)
	}
}

// TestNewRejectsMultiSlotHosts: a host runs one op at a time, so a config
// asking for more is refused before any host boots.
func TestNewRejectsMultiSlotHosts(t *testing.T) {
	c, err := New(Config{Hosts: 1, Core: labCoreConfig(), Workers: 2})
	if err == nil {
		c.Close()
		t.Fatal("New accepted Workers: 2")
	}
}

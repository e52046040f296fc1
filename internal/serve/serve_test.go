package serve

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/numa"
)

// serveGeometry is the two-socket lab box the lifecycle experiments use:
// per socket one host node, one EPT node, and three 64 MiB guest nodes.
func serveGeometry() geometry.Geometry {
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

func serveProfile() dram.Profile {
	p := dram.ProfileF()
	p.Transforms = addr.TransformConfig{}
	return p
}

func serveCoreConfig() core.Config {
	return core.Config{
		Geometry:      serveGeometry(),
		Profiles:      []dram.Profile{serveProfile()},
		EPTProtection: ept.GuardRows,
	}
}

func bootHost(t testing.TB, mode core.Mode) *core.Hypervisor {
	t.Helper()
	h, err := core.Boot(serveCoreConfig(), mode)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func createTenantVM(t testing.TB, h *core.Hypervisor, name string, socket int) {
	t.Helper()
	_, err := h.CreateVM(core.Process{CGroup: "kvm", KVMPrivileged: true},
		core.VMSpec{Name: name, Socket: socket, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
}

// twoTenantConfig serves two closed-loop tenants, one per socket.
func twoTenantConfig(h *core.Hypervisor) Config {
	return Config{
		Hypervisor: h,
		Tenants: []TenantSpec{
			{VM: "t0", Clients: 4, ThinkNs: 20000},
			{VM: "t1", Clients: 4, ThinkNs: 20000},
		},
		DurationNs: 10e6, // 10 ms of arrivals
		SLONs:      50000,
		Seed:       42,
	}
}

func runServe(t *testing.T, cfg Config) *Report {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestServeDeterminism: two runs of the same config on freshly booted
// hosts produce byte-identical reports — the property the serving-slo
// experiment's parallel-identity check rests on.
func TestServeDeterminism(t *testing.T) {
	var reports []*Report
	for i := 0; i < 2; i++ {
		h := bootHost(t, core.ModeSiloz)
		createTenantVM(t, h, "t0", 0)
		createTenantVM(t, h, "t1", 1)
		reports = append(reports, runServe(t, twoTenantConfig(h)))
	}
	if reports[0].String() != reports[1].String() {
		t.Fatalf("non-deterministic reports:\n%s\nvs\n%s", reports[0], reports[1])
	}
	if !reflect.DeepEqual(reports[0].Total, reports[1].Total) {
		t.Fatal("total histograms differ across identical runs")
	}
	r := reports[0]
	if r.Requests == 0 || r.Errors != 0 {
		t.Fatalf("requests=%d errors=%d, want traffic and no errors", r.Requests, r.Errors)
	}
	if len(r.Tenants) != 2 || r.Tenants[0].VM != "t0" {
		t.Fatalf("tenant reports out of order: %+v", r.Tenants)
	}
	if r.Total.P99() < r.Total.P50() {
		t.Fatalf("p99 %v < p50 %v", r.Total.P99(), r.Total.P50())
	}
}

// TestStationsArePerSocket pins the station rule: tenants on one socket
// share its controller and LLC, tenants on different sockets share nothing.
// t0 stays tenant 0 in every run so its random streams do not change; a busy
// t1 on the other socket must leave t0's report exactly as it was serving
// alone, and the same t1 on t0's socket must slow t0 down.
func TestStationsArePerSocket(t *testing.T) {
	t0 := TenantSpec{VM: "t0", Clients: 2, ThinkNs: 20000}
	busy := TenantSpec{VM: "t1", Clients: 8}
	run := func(t1Socket int, tenants ...TenantSpec) TenantReport {
		h := bootHost(t, core.ModeSiloz)
		createTenantVM(t, h, "t0", 0)
		if len(tenants) > 1 {
			createTenantVM(t, h, "t1", t1Socket)
		}
		rep := runServe(t, Config{Hypervisor: h, Tenants: tenants, DurationNs: 4e6, Seed: 13})
		if rep.Errors != 0 {
			t.Fatalf("errors: %d", rep.Errors)
		}
		return rep.Tenants[0]
	}
	alone := run(0, t0)
	if other := run(1, t0, busy); !reflect.DeepEqual(other, alone) {
		t.Errorf("a tenant on the other socket changed t0's report:\nalone %+v mean %.1f\nwith  %+v mean %.1f",
			alone, alone.Hist.Mean(), other, other.Hist.Mean())
	}
	if same := run(0, t0, busy); same.Hist.Mean() <= alone.Hist.Mean() {
		t.Errorf("a busy tenant on t0's socket left its mean latency at %.1fns (alone %.1fns)",
			same.Hist.Mean(), alone.Hist.Mean())
	}
}

// TestServeOpenLoopOverload: offered load beyond station capacity must
// show up as achieved QPS below offered and queueing delay in the tail —
// the open loop does not gate arrivals on completions.
func TestServeOpenLoopOverload(t *testing.T) {
	h := bootHost(t, core.ModeSiloz)
	createTenantVM(t, h, "t0", 0)
	offered := 4e6
	rep := runServe(t, Config{
		Hypervisor: h,
		Tenants:    []TenantSpec{{VM: "t0", TargetQPS: offered}},
		DurationNs: 4e6,
		Seed:       7,
	})
	if rep.Errors != 0 {
		t.Fatalf("errors: %d", rep.Errors)
	}
	if got := rep.AchievedQPS(); got >= 0.75*offered {
		t.Fatalf("achieved %.0f qps under overload, want well below offered %.0f", got, offered)
	}
	if rep.LastCompletionNs <= rep.DurationNs {
		t.Fatal("overload run should still be draining past the arrival horizon")
	}
	if rep.Total.P99() <= rep.Total.P50() {
		t.Fatalf("no queueing tail: p50=%v p99=%v", rep.Total.P50(), rep.Total.P99())
	}
}

// TestServeChurnWindows replays a resize, a cross-socket migration, and a
// defragmentation against serving tenants and checks the windows: byte
// counts and blackouts from the mechanism reports, lifecycle probes
// captured inside the right window, and the resize rebinding the tenant's
// request generator to the shrunken region (no translation errors after).
func TestServeChurnWindows(t *testing.T) {
	h := bootHost(t, core.ModeSiloz)
	createTenantVM(t, h, "t0", 0)
	createTenantVM(t, h, "t1", 1)
	cfg := twoTenantConfig(h)
	cfg.Churn = []Event{
		{AtNs: 2e6, Kind: EventResize, Tenant: "t0", TargetBytes: 32 * geometry.MiB},
		{AtNs: 5e6, Kind: EventMigrate, Tenant: "t0", DestSocket: 1, DirtyPages: 4},
		{AtNs: 8e6, Kind: EventDefrag, Tenant: "t1", MaxMoves: 2},
	}
	rep := runServe(t, cfg)
	if rep.Errors != 0 {
		t.Fatalf("errors after churn: %d (resize must rebind the generator)", rep.Errors)
	}
	if len(rep.Windows) != 3 {
		t.Fatalf("got %d windows, want 3", len(rep.Windows))
	}
	resize, mig, defrag := rep.Windows[0], rep.Windows[1], rep.Windows[2]
	for _, w := range rep.Windows[:2] {
		if w.Err != "" {
			t.Fatalf("window %s failed: %s", w.Label, w.Err)
		}
		if w.BytesCopied == 0 || w.EndNs <= w.StartNs {
			t.Fatalf("window %s copied nothing: %+v", w.Label, w)
		}
		if w.Hist.Count() == 0 {
			t.Fatalf("window %s served no traffic", w.Label)
		}
	}
	if !hasProbe(resize.Probes, "balloon.unmapped@t0") {
		t.Fatalf("resize window missing balloon probe: %v", resize.Probes)
	}
	if mig.BlackoutNs <= 0 {
		t.Fatalf("migration with dirty pages had no stop-and-copy blackout: %+v", mig)
	}
	if defrag.Err != "" {
		t.Fatalf("defrag on a Siloz host failed: %s", defrag.Err)
	}
	// The migrated tenant must still be serving from its new socket.
	vm, ok := h.VM("t0")
	if !ok {
		t.Fatal("t0 gone after migration")
	}
	if got := vm.Spec().MemoryBytes; got != 64*geometry.MiB {
		t.Fatalf("t0 spec bytes = %d", got)
	}
}

// TestServeResizeCommitsWhenEPTRelocationFails: a shrink that drains the
// tenant's last node on its EPT socket, while the other socket's EPT pool is
// exhausted, commits but fails to relocate the tables. The window records
// the error and the tenant serves from the shrunken size: a generator left
// at the old size would address the surrendered range and fail requests.
func TestServeResizeCommitsWhenEPTRelocationFails(t *testing.T) {
	h := bootHost(t, core.ModeSiloz)
	proc := core.Process{CGroup: "kvm", KVMPrivileged: true}
	if _, err := h.CreateVM(proc, core.VMSpec{Name: "t0", Socket: 0, MemoryBytes: 128 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
	// One node per socket, socket 1's first: the top half of guest RAM,
	// which the shrink surrenders, stays on socket 0 beside the tables.
	var dests []int
	for _, socket := range []int{1, 0} {
		for _, n := range h.Topology().NodesOnSocket(socket, numa.GuestReserved) {
			if _, owned := h.Registry().OwnerOf(n.ID); !owned {
				dests = append(dests, n.ID)
				break
			}
		}
	}
	if _, err := h.MigrateVM(context.Background(), "t0", dests, core.MigrateOptions{}); err != nil {
		t.Fatal(err)
	}
	eptNode, err := h.EPTNode(1)
	if err != nil {
		t.Fatal(err)
	}
	eptPool, err := h.Allocator(eptNode.ID)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := eptPool.Alloc(0); err != nil {
			break
		}
	}
	cfg := Config{
		Hypervisor: h,
		Tenants:    []TenantSpec{{VM: "t0", Clients: 4, ThinkNs: 20000}},
		DurationNs: 4e6,
		SLONs:      50000,
		Seed:       42,
		Churn:      []Event{{AtNs: 1e6, Kind: EventResize, Tenant: "t0", TargetBytes: 64 * geometry.MiB}},
	}
	rep := runServe(t, cfg)
	if len(rep.Windows) != 1 || !strings.Contains(rep.Windows[0].Err, "EPT") {
		t.Fatalf("windows %+v: want the resize's relocation failure recorded", rep.Windows)
	}
	if w := rep.Windows[0]; w.BytesCopied != 64*geometry.MiB {
		t.Errorf("resize window moved %d bytes, want the 64 MiB surrendered", w.BytesCopied)
	}
	if rep.Errors != 0 {
		t.Errorf("%d requests failed after the committed shrink", rep.Errors)
	}
}

// TestServeProbeLivesForTheRun: a loop with churn holds the hypervisor's
// lifecycle probe only while it runs — after Run a resize of its host is
// recorded nowhere, even in a window marked active — and a loop without
// churn leaves the probe to whoever installed it.
func TestServeProbeLivesForTheRun(t *testing.T) {
	h := bootHost(t, core.ModeSiloz)
	createTenantVM(t, h, "t0", 0)
	cfg := Config{
		Hypervisor: h,
		Tenants:    []TenantSpec{{VM: "t0", Clients: 2, ThinkNs: 20000}},
		DurationNs: 4e6,
		Seed:       5,
		Churn:      []Event{{AtNs: 1e6, Kind: EventResize, Tenant: "t0", TargetBytes: 32 * geometry.MiB}},
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) != 1 || !hasProbe(rep.Windows[0].Probes, "balloon.unmapped@t0") {
		t.Fatalf("windows %+v: the running loop recorded no probe", rep.Windows)
	}
	var late Window
	l.setActiveWindow(&late)
	if _, err := h.ResizeVM("t0", 16*geometry.MiB); err != nil {
		t.Fatal(err)
	}
	if len(late.Probes) != 0 {
		t.Errorf("the finished loop still observes its host: %v", late.Probes)
	}

	var seen []core.EventKind
	h.SetLifecycleProbe(func(e core.Event) { seen = append(seen, e.Kind) })
	cfg.Churn = nil
	runServe(t, cfg)
	if _, err := h.ResizeVM("t0", 8*geometry.MiB); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Errorf("a loop without churn displaced the installed probe: it saw %v", seen)
	}
}

// TestServeBaselineDefragIsResultNotFailure: on a baseline host the
// defragmentation engine refuses to run; the serving loop records the
// refusal on the window and keeps serving.
func TestServeBaselineDefragIsResultNotFailure(t *testing.T) {
	h := bootHost(t, core.ModeBaseline)
	createTenantVM(t, h, "t0", 0)
	cfg := Config{
		Hypervisor: h,
		Tenants:    []TenantSpec{{VM: "t0", Clients: 2, ThinkNs: 20000}},
		DurationNs: 4e6,
		Seed:       3,
		Churn:      []Event{{AtNs: 2e6, Kind: EventDefrag, Tenant: "t0"}},
	}
	rep := runServe(t, cfg)
	if len(rep.Windows) != 1 || rep.Windows[0].Err == "" {
		t.Fatalf("baseline defrag should record an error window, got %+v", rep.Windows)
	}
	if rep.Requests == 0 || rep.Errors != 0 {
		t.Fatalf("serving did not continue past the failed event: %+v", rep)
	}
}

// TestServeSLOViolationAccounting pins the violation counter: an SLO below
// the fastest observed request makes every request a violation, one above
// the slowest makes none — the counter compares exact latencies, not
// histogram buckets. Runs are deterministic, so the baseline's min/max
// carry over exactly to the SLO'd reruns.
func TestServeSLOViolationAccounting(t *testing.T) {
	run := func(slo float64) *Report {
		h := bootHost(t, core.ModeSiloz)
		createTenantVM(t, h, "t0", 0)
		return runServe(t, Config{
			Hypervisor: h,
			Tenants:    []TenantSpec{{VM: "t0", Clients: 4, ThinkNs: 20000}},
			DurationNs: 4e6,
			Seed:       11,
			SLONs:      slo,
		})
	}
	base := run(0)
	if base.Violations != 0 {
		t.Fatalf("violations counted with no SLO configured: %d", base.Violations)
	}
	if tight := run(base.Total.Quantile(0) / 2); tight.ViolationFrac() != 1 {
		t.Fatalf("SLO below the fastest request: violation frac %.3f, want 1",
			tight.ViolationFrac())
	}
	if loose := run(base.Total.Max() * 2); loose.Violations != 0 {
		t.Fatalf("SLO above the slowest request still violated %d times", loose.Violations)
	}
}

// TestViolationFracCountsErrors: a request that died mid-issue missed its
// SLO. A tenant whose VM is destroyed under the loop errors on every request;
// the run must report all of them missed — the old rule divided violations
// by the successful requests and printed 0.000%.
func TestViolationFracCountsErrors(t *testing.T) {
	h := bootHost(t, core.ModeSiloz)
	createTenantVM(t, h, "t0", 0)
	l, err := New(Config{
		Hypervisor: h,
		Tenants:    []TenantSpec{{VM: "t0", Clients: 2, ThinkNs: 20000}},
		DurationNs: 1e6,
		Seed:       3,
		SLONs:      1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyVM("t0"); err != nil {
		t.Fatal(err)
	}
	rep, err := l.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Errors != rep.Requests || rep.Violations != 0 {
		t.Fatalf("requests %d, errors %d, violations %d: want every request to error", rep.Requests, rep.Errors, rep.Violations)
	}
	if got := rep.ViolationFrac(); got != 1 {
		t.Errorf("every request errored: violation frac %v, want 1", got)
	}
	if s := rep.String(); !strings.Contains(s, "slo-miss 100.000%") {
		t.Errorf("report does not show the errored run as all missed:\n%s", s)
	}
	if got := (&Report{Requests: 10, Errors: 2, Violations: 3}).ViolationFrac(); got != 0.5 {
		t.Errorf("2 errors + 3 violations of 10 requests: violation frac %v, want 0.5", got)
	}
	if got := (&Report{}).ViolationFrac(); got != 0 {
		t.Errorf("no requests: violation frac %v, want 0", got)
	}
}

func hasProbe(probes []string, want string) bool {
	for _, p := range probes {
		if strings.HasPrefix(p, want) {
			return true
		}
	}
	return false
}

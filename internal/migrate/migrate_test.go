package migrate

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
)

// Small two-socket system: 4 subarray groups of 64 MiB per socket — 1 host +
// 1 EPT + 3 guest nodes each side.
func testConfig() core.Config {
	p := dram.ProfileF()
	p.VulnerableRowFraction = 1
	p.WeakCellsPerRow = 3
	p.HammerThreshold = 5000
	p.Transforms = addr.TransformConfig{}
	return core.Config{
		Geometry: geometry.Geometry{
			Sockets:         2,
			CoresPerSocket:  4,
			DIMMsPerSocket:  1,
			RanksPerDIMM:    2,
			BanksPerRank:    8,
			RowsPerBank:     2048,
			RowBytes:        8 * geometry.KiB,
			RowsPerSubarray: 512,
		},
		Profiles:      []dram.Profile{p},
		EPTProtection: ept.GuardRows,
	}
}

func bootSiloz(t *testing.T) *core.Hypervisor {
	t.Helper()
	h, err := core.Boot(testConfig(), core.ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func kvmProc() core.Process { return core.Process{CGroup: "kvm", KVMPrivileged: true} }

func mustCreate(t *testing.T, h *core.Hypervisor, name string, socket int, bytes uint64) *core.VM {
	t.Helper()
	vm, err := h.CreateVM(kvmProc(), core.VMSpec{Name: name, Socket: socket, MemoryBytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestOccupancyReflectsReservations(t *testing.T) {
	h := bootSiloz(t)
	mustCreate(t, h, "a", 0, 64*geometry.MiB)
	occ, err := NewPlanner(h).Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	if len(occ) != 6 {
		t.Fatalf("occupancy rows = %d, want 6 guest nodes", len(occ))
	}
	var owned, free int
	for _, o := range occ {
		if o.Owner == "vm:a" {
			owned++
			if o.FreeBytes != 0 || o.FreePages2M != 0 || o.LargestFreeOrder != -1 {
				t.Errorf("fully-reserved node reports free space: %+v", o)
			}
		} else if o.Owner == "" {
			free++
			if o.FreeBytes != o.TotalBytes {
				t.Errorf("unowned node not fully free: %+v", o)
			}
			if o.LargestFreeOrder < 9 {
				t.Errorf("unowned node largest order = %d", o.LargestFreeOrder)
			}
		}
	}
	if owned != 1 || free != 5 {
		t.Errorf("owned=%d free=%d, want 1/5", owned, free)
	}
}

// TestOccupancyAllocatesOnce: Occupancy makes its result at the exact size,
// and that is its one allocation: the Visit under it reads the topology in
// place and allocates nothing.
func TestOccupancyAllocatesOnce(t *testing.T) {
	h := bootSiloz(t)
	mustCreate(t, h, "a", 0, 64*geometry.MiB)
	p := NewPlanner(h)
	occ, err := p.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	if len(occ) != cap(occ) {
		t.Errorf("occupancy len %d cap %d, want equal", len(occ), cap(occ))
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = p.Occupancy() }); allocs != 1 {
		t.Errorf("Occupancy: %v allocs per call, want 1 (its result)", allocs)
	}
	visited := 0
	if allocs := testing.AllocsPerRun(100, func() {
		visited = 0
		_ = p.Visit(func(NodeOccupancy) { visited++ })
	}); allocs != 0 || visited != len(occ) {
		t.Errorf("Visit: %v allocs per call over %d nodes, want 0 over %d", allocs, visited, len(occ))
	}
}

func TestPlanAdmissionEmptyWhenRoomExists(t *testing.T) {
	h := bootSiloz(t)
	mustCreate(t, h, "a", 0, 64*geometry.MiB)
	plan, err := NewPlanner(h).PlanAdmission(core.VMSpec{Name: "p", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 {
		t.Errorf("plan has %d moves, want none", len(plan.Moves))
	}
}

// TestAdmitWithRebalance is the acceptance scenario: a VM that CreateVM
// refuses with ENOMEM-from-fragmentation is admitted after the planner and
// engine rebalance a victim across sockets — while the victim's guest keeps
// writing, with byte identity across the move and the isolation invariant
// audited after every pre-copy round.
func TestAdmitWithRebalance(t *testing.T) {
	h := bootSiloz(t)
	victims := make([]*core.VM, 3)
	for i, name := range []string{"t0", "t1", "t2"} {
		victims[i] = mustCreate(t, h, name, 0, 64*geometry.MiB)
	}
	pending := core.VMSpec{Name: "pending", Socket: 0, MemoryBytes: 64 * geometry.MiB}
	if _, err := h.CreateVM(kvmProc(), pending); err == nil {
		t.Fatal("pending VM admitted while socket 0 is full — scenario broken")
	}

	// Seed deterministic content in every prospective victim.
	content := map[string][]byte{}
	for _, vm := range victims {
		buf := make([]byte, 3*geometry.PageSize2M)
		for i := range buf {
			buf[i] = byte(i*13+len(vm.Name())) | 1
		}
		if err := vm.WriteGuest(geometry.PageSize2M, buf); err != nil {
			t.Fatal(err)
		}
		content[vm.Name()] = buf
	}

	eng := NewEngine(h)
	audited := 0
	h.SetLifecycleProbe(func(e core.Event) {
		if e.Kind == core.ProbeMigrateRound {
			audited++
		}
	})
	eng.Opt = core.MigrateOptions{
		StopPages: 1, MaxRounds: 10,
		// The victim guest keeps dirtying pages while it is moved.
		GuestStep: func(round int) error {
			if round > 1 {
				return nil
			}
			for _, vm := range h.VMs() {
				if !vm.DirtyTracking() {
					continue
				}
				buf := content[vm.Name()][:geometry.PageSize2M]
				for i := range buf {
					buf[i] = byte(i*7 + round + 2)
				}
				if err := vm.WriteGuest(geometry.PageSize2M, buf); err != nil {
					return err
				}
			}
			return nil
		},
	}
	vm, reps, err := eng.AdmitWithRebalance(context.Background(), kvmProc(), pending)
	if err != nil {
		t.Fatal(err)
	}
	if vm == nil || vm.Spec().Socket != 0 {
		t.Fatal("pending VM not admitted on its home socket")
	}
	if len(reps) == 0 {
		t.Fatal("admission succeeded without any migration — scenario broken")
	}
	if audited == 0 {
		t.Error("no per-round isolation audits ran")
	}
	for _, rep := range reps {
		if !rep.Converged {
			t.Errorf("move of %q did not converge: %+v", rep.VM, rep)
		}
		if rep.DestNodes[0] == rep.SourceNodes[0] {
			t.Errorf("move of %q did not change nodes", rep.VM)
		}
	}
	// Byte identity for every victim, including writes made mid-flight.
	for _, v := range victims {
		got := make([]byte, len(content[v.Name()]))
		if err := v.ReadGuest(geometry.PageSize2M, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content[v.Name()]) {
			t.Errorf("VM %q memory diverged across rebalancing", v.Name())
		}
	}
	if err := AuditIsolation(h); err != nil {
		t.Errorf("final isolation audit: %v", err)
	}
}

func TestPlanAdmissionInfeasible(t *testing.T) {
	h := bootSiloz(t)
	// Fill both sockets completely: no free destination anywhere.
	for i, name := range []string{"a", "b", "c", "d", "e", "f"} {
		mustCreate(t, h, name, i/3, 64*geometry.MiB)
	}
	_, err := NewPlanner(h).PlanAdmission(core.VMSpec{Name: "p", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err == nil {
		t.Fatal("infeasible rebalancing produced a plan")
	}
}

func TestDefragmentEvensSockets(t *testing.T) {
	h := bootSiloz(t)
	mustCreate(t, h, "a", 0, 64*geometry.MiB)
	mustCreate(t, h, "b", 0, 64*geometry.MiB)
	mustCreate(t, h, "c", 0, 64*geometry.MiB)
	eng := NewEngine(h)
	reps, err := eng.Defragment(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// 3 vs 0 → one move gives 2 vs 1; the next would only mirror the
	// imbalance, so the loop stops.
	if len(reps) != 1 {
		t.Fatalf("defragment made %d moves, want 1", len(reps))
	}
	occ, err := NewPlanner(h).Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	owned := map[int]int{}
	for _, o := range occ {
		if o.Owner != "" {
			owned[o.Node.Socket]++
		}
	}
	if owned[0] != 2 || owned[1] != 1 {
		t.Errorf("post-defrag occupancy %v, want socket0=2 socket1=1", owned)
	}
	if err := AuditIsolation(h); err != nil {
		t.Error(err)
	}
}

func TestAuditCleanSystem(t *testing.T) {
	h := bootSiloz(t)
	mustCreate(t, h, "a", 0, 64*geometry.MiB)
	mustCreate(t, h, "b", 1, 128*geometry.MiB)
	if err := AuditIsolation(h); err != nil {
		t.Error(err)
	}
}

// TestAuditReportsFirstViolation: AuditIsolation is the hypervisor's one
// invariant set with the first finding surfaced as an error.
func TestAuditReportsFirstViolation(t *testing.T) {
	h := bootSiloz(t)
	vm := mustCreate(t, h, "a", 0, 64*geometry.MiB)
	if err := h.Registry().Shrink("vm:a", []int{vm.Nodes()[0].ID}); err != nil {
		t.Fatal(err)
	}
	bad := h.Audit()
	err := AuditIsolation(h)
	if err == nil || len(bad) == 0 {
		t.Fatalf("registry drift undetected: err=%v, violations=%v", err, bad)
	}
	if want := "migrate: " + bad[0]; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

// TestPlanPrefersShrinkOverMigration: a home-socket VM that opted into
// ballooning (MinMemoryBytes > 0) is shrunk in place instead of any VM
// being migrated — no pages cross the machine.
func TestPlanPrefersShrinkOverMigration(t *testing.T) {
	h := bootSiloz(t)
	if _, err := h.CreateVM(kvmProc(), core.VMSpec{
		Name: "bal", Socket: 0, MemoryBytes: 128 * geometry.MiB,
		MinMemoryBytes: 64 * geometry.MiB,
	}); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, h, "other", 0, 64*geometry.MiB)

	plan, err := NewPlanner(h).PlanAdmission(
		core.VMSpec{Name: "p", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 {
		t.Errorf("plan migrates %v although a shrink suffices", plan.Moves)
	}
	if len(plan.Shrinks) != 1 || plan.Shrinks[0].VM != "bal" || plan.Shrinks[0].Target != 64*geometry.MiB {
		t.Fatalf("plan.Shrinks = %+v, want bal shrunk to 64 MiB", plan.Shrinks)
	}

	// The engine executes the shrink and the pending VM is admitted with
	// zero migration reports.
	eng := NewEngine(h)
	vm, reps, err := eng.AdmitWithRebalance(context.Background(), kvmProc(),
		core.VMSpec{Name: "p", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 0 {
		t.Errorf("admission migrated %d VMs, want pure shrink-in-place", len(reps))
	}
	if vm.Spec().Socket != 0 {
		t.Error("pending VM not admitted on its home socket")
	}
	if err := AuditIsolation(h); err != nil {
		t.Error(err)
	}
}

// TestPlanCombinesShrinkAndMove: when shrinking every consenting VM still
// leaves a deficit, the planner adds migrations — but never picks a VM it
// is already ballooning as a migration victim.
func TestPlanCombinesShrinkAndMove(t *testing.T) {
	h := bootSiloz(t)
	if _, err := h.CreateVM(kvmProc(), core.VMSpec{
		Name: "bal", Socket: 0, MemoryBytes: 128 * geometry.MiB,
		MinMemoryBytes: 64 * geometry.MiB,
	}); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, h, "other", 0, 64*geometry.MiB)

	// Needs 128 MiB: the shrink frees one node (64 MiB), a move of "other"
	// must supply the rest.
	plan, err := NewPlanner(h).PlanAdmission(
		core.VMSpec{Name: "p", Socket: 0, MemoryBytes: 128 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shrinks) != 1 || plan.Shrinks[0].VM != "bal" {
		t.Fatalf("plan.Shrinks = %+v, want bal", plan.Shrinks)
	}
	if len(plan.Moves) != 1 || plan.Moves[0].VM != "other" {
		t.Fatalf("plan.Moves = %+v, want exactly [other] — a ballooning VM must not also migrate", plan.Moves)
	}
	eng := NewEngine(h)
	eng.Opt = core.MigrateOptions{StopPages: 1, MaxRounds: 10}
	vm, reps, err := eng.AdmitWithRebalance(context.Background(), kvmProc(),
		core.VMSpec{Name: "p", Socket: 0, MemoryBytes: 128 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].VM != "other" {
		t.Fatalf("migrations = %+v, want one move of \"other\"", reps)
	}
	if len(vm.Nodes()) != 2 {
		t.Errorf("admitted VM owns %d nodes, want 2", len(vm.Nodes()))
	}
	if err := AuditIsolation(h); err != nil {
		t.Error(err)
	}
}

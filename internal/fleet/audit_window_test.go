package fleet

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

// Tests for the move-window audit: a cross-host move legitimately holds one
// VM on two hosts between routing commit and source destroy, and the audit
// must (a) accept exactly that pair and (b) reject anything looser —
// pre-fix it skipped the routing check entirely for moving VMs and missed
// third-copy double ownership.

// TestAuditPassesInsideMoveWindow audits from inside the double-ownership
// window itself: after the routing table flips to the destination but
// before the source copy is destroyed, both copies are live and the audit
// must still pass — the fleet's, and core's on each host of the move.
func TestAuditPassesInsideMoveWindow(t *testing.T) {
	c := testCluster(t, 2, FirstFit{})
	admit(t, c, "w0", 64*1024*1024)
	ctx := context.Background()

	probed := map[core.EventKind]bool{}
	c.Hosts()[0].Hypervisor().SetLifecycleProbe(func(e core.Event) {
		event := e.Kind
		if event == core.ProbeMigrateRound {
			return
		}
		probed[event] = true
		// Both copies are live right now ("committed": routing already
		// points at the destination, source not yet destroyed).
		if err := c.AuditIsolation(); err != nil {
			t.Errorf("audit inside %q window: %v", event, err)
		}
		for _, h := range c.Hosts() {
			if bad := h.Hypervisor().Audit(); len(bad) != 0 {
				t.Errorf("%s audit inside %q window: %v", h.Name(), event, bad)
			}
		}
	})
	if _, err := c.MoveVM(ctx, "w0", "host-1", 1, 2, 11); err != nil {
		t.Fatal(err)
	}
	if !probed[core.ProbeMoveCopied] || !probed[core.ProbeMoveCommitted] {
		t.Fatalf("move probes fired = %v, want copied and committed", probed)
	}
	if err := c.AuditIsolation(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditRejectsCopyOutsideMoveWindow hand-opens a bogus move window: the
// recorded pair does not include the host the VM actually lives on, so the
// "mid-move" excuse must not cover it.
func TestAuditRejectsCopyOutsideMoveWindow(t *testing.T) {
	c := testCluster(t, 3, FirstFit{})
	admit(t, c, "x0", 64*1024*1024) // FirstFit lands it on host-0
	c.mu.Lock()
	c.moving["x0"] = moveWindow{Src: "host-1", Dst: "host-2"}
	c.mu.Unlock()
	err := c.AuditIsolation()
	if err == nil || !strings.Contains(err.Error(), "outside its move window") {
		t.Fatalf("audit accepted a live copy outside the move window: %v", err)
	}
	c.mu.Lock()
	delete(c.moving, "x0")
	c.mu.Unlock()
}

// TestAuditRejectsRoutingOutsideMoveWindow: a mid-move VM routed to a host
// that is neither source nor destination is a routing-table corruption the
// pre-fix audit silently skipped.
func TestAuditRejectsRoutingOutsideMoveWindow(t *testing.T) {
	c := testCluster(t, 3, FirstFit{})
	admit(t, c, "y0", 64*1024*1024)
	c.mu.Lock()
	c.moving["y0"] = moveWindow{Src: "host-0", Dst: "host-1"}
	c.vmHost["y0"] = "host-2"
	c.mu.Unlock()
	err := c.AuditIsolation()
	if err == nil || !strings.Contains(err.Error(), "routed to host-2 outside its move window") {
		t.Fatalf("audit accepted mid-move routing outside the window: %v", err)
	}
	c.mu.Lock()
	c.vmHost["y0"] = "host-0"
	delete(c.moving, "y0")
	c.mu.Unlock()
}

// TestAuditRejectsDuplicateWithoutMove: the same name live on two hosts
// with no move in flight is double ownership, full stop.
func TestAuditRejectsDuplicateWithoutMove(t *testing.T) {
	c := testCluster(t, 2, FirstFit{})
	admit(t, c, "z0", 64*1024*1024)
	// Boot a same-named twin directly on host-1, bypassing the cluster.
	h1 := c.Hosts()[1]
	vm0, ok := c.Hosts()[0].Hypervisor().VM("z0")
	if !ok {
		t.Fatal("z0 not on host-0")
	}
	if _, err := h1.Hypervisor().CreateVM(testProc(), vm0.Spec()); err != nil {
		t.Fatal(err)
	}
	err := c.AuditIsolation()
	if err == nil || !strings.Contains(err.Error(), "live on multiple hosts") {
		t.Fatalf("audit accepted duplicate VM with no move in flight: %v", err)
	}
	if err := h1.Hypervisor().DestroyVM("z0"); err != nil {
		t.Fatal(err)
	}
}

// TestAuditReportsTheSameViolation: with two violations of one check the
// audit names the same one on every call — the first VM name in sorted
// order — however the maps it walks are ordered. Two routed VMs live
// nowhere exercise the routing walk; two VMs live on two hosts with no move
// in flight, the live-copy walk.
func TestAuditReportsTheSameViolation(t *testing.T) {
	requireSame := func(c *Cluster, want string) {
		t.Helper()
		first := c.AuditIsolation()
		if first == nil || !strings.Contains(first.Error(), want) {
			t.Fatalf("audit: %v, want a violation naming %s", first, want)
		}
		for i := 0; i < 20; i++ {
			if err := c.AuditIsolation(); err == nil || err.Error() != first.Error() {
				t.Fatalf("audit call %d: %v, want %v", i, err, first)
			}
		}
	}

	c := testCluster(t, 2, FirstFit{})
	c.mu.Lock()
	c.vmHost["ghost-b"] = "host-1"
	c.vmHost["ghost-a"] = "host-0"
	c.mu.Unlock()
	requireSame(c, `"ghost-a"`)
	c.mu.Lock()
	delete(c.vmHost, "ghost-a")
	delete(c.vmHost, "ghost-b")
	c.mu.Unlock()

	for _, name := range []string{"z1", "z0"} {
		admit(t, c, name, 64*1024*1024) // FirstFit lands both on host-0
		vm, ok := c.Hosts()[0].Hypervisor().VM(name)
		if !ok {
			t.Fatalf("%s not on host-0", name)
		}
		if _, err := c.Hosts()[1].Hypervisor().CreateVM(testProc(), vm.Spec()); err != nil {
			t.Fatal(err)
		}
	}
	requireSame(c, `"z0"`)
}

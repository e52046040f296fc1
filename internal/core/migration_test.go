package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/geometry"
	"repro/internal/numa"
)

// fillPage builds a deterministic 2 MiB pattern distinguishable per (page,
// seed) pair.
func fillPage(p int, seed byte) []byte {
	buf := make([]byte, geometry.PageSize2M)
	for i := range buf {
		buf[i] = byte(p*31+i*7) ^ seed
	}
	return buf
}

// freeGuestNode returns an unowned guest-reserved node on the socket.
func freeGuestNode(t *testing.T, h *Hypervisor, socket int) *numa.Node {
	t.Helper()
	for _, n := range h.Topology().NodesOnSocket(socket, numa.GuestReserved) {
		if _, owned := h.Registry().OwnerOf(n.ID); !owned {
			return n
		}
	}
	t.Fatalf("no free guest node on socket %d", socket)
	return nil
}

func TestDirtyTrackingLogsWrites(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "dt", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.StartDirtyTracking(); err != nil {
		t.Fatal(err)
	}
	if err := vm.StartDirtyTracking(); err == nil {
		t.Error("double StartDirtyTracking accepted")
	}
	// Writes to pages 3 and 5 (5 twice: logged once per round).
	for _, gpa := range []uint64{3 * geometry.PageSize2M, 5 * geometry.PageSize2M, 5*geometry.PageSize2M + 99} {
		if err := vm.WriteGuest(gpa, []byte("dirty")); err != nil {
			t.Fatal(err)
		}
	}
	gpas, err := vm.TakeDirty()
	if err != nil {
		t.Fatal(err)
	}
	if len(gpas) != 2 || gpas[0] != 3*geometry.PageSize2M || gpas[1] != 5*geometry.PageSize2M {
		t.Fatalf("dirty set = %#v, want pages 3 and 5", gpas)
	}
	// Drained; protection re-armed, so a new write is logged again.
	if gpas, err = vm.TakeDirty(); err != nil || len(gpas) != 0 {
		t.Fatalf("second drain = %v, %v, want empty", gpas, err)
	}
	if err := vm.WriteGuest(3*geometry.PageSize2M, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if gpas, err = vm.TakeDirty(); err != nil || len(gpas) != 1 {
		t.Fatalf("re-dirty drain = %v, %v, want one page", gpas, err)
	}
	if err := vm.StopDirtyTracking(); err != nil {
		t.Fatal(err)
	}
	if vm.DirtyTracking() {
		t.Error("still tracking after stop")
	}
	// Disarmed: writes must not fault or log.
	before := vm.Exits()
	if err := vm.WriteGuest(7*geometry.PageSize2M, []byte("free")); err != nil {
		t.Fatal(err)
	}
	if vm.Exits() != before {
		t.Error("write after StopDirtyTracking still took an exit")
	}
}

func TestMigrateVMLivePreCopy(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "mig", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	srcNode := vm.Nodes()[0].ID
	srcPages := vm.RAMPages()

	// Pre-migration contents: pages 0..7 patterned, the rest untouched.
	mirror := map[int][]byte{}
	for p := 0; p < 8; p++ {
		buf := fillPage(p, 0xA5)
		if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, buf); err != nil {
			t.Fatal(err)
		}
		mirror[p] = buf
	}

	// The guest keeps writing while pre-copy runs: shrinking page sets per
	// round so the dirty set converges after a few rounds.
	stepPages := map[int][]int{0: {10, 11, 12, 13, 14, 15}, 1: {10, 11, 12}, 2: {10}}
	dest := freeGuestNode(t, h, 0)
	rep, err := h.MigrateVM(context.Background(), "mig", []int{dest.ID}, MigrateOptions{
		StopPages: 1, MaxRounds: 10,
		GuestStep: func(round int) error {
			for _, p := range stepPages[round] {
				buf := fillPage(p, byte(0x11*(round+1)))
				if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, buf); err != nil {
					return err
				}
				mirror[p] = buf
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Errorf("pre-copy did not converge: %+v", rep)
	}
	if len(rep.Rounds) != 3 {
		t.Errorf("rounds = %d, want 3", len(rep.Rounds))
	}
	if rep.PagesTotal != 32 || rep.Rounds[0].PagesCopied != 32 {
		t.Errorf("round 0 copied %d of %d pages", rep.Rounds[0].PagesCopied, rep.PagesTotal)
	}
	if rep.Rounds[0].DirtyAfter != 6 || rep.Rounds[1].DirtyAfter != 3 || rep.Rounds[2].DirtyAfter != 1 {
		t.Errorf("dirty-set trajectory %+v, want 6/3/1", rep.Rounds)
	}
	if rep.DowntimePages != 1 {
		t.Errorf("downtime pages = %d, want the single converged dirty page", rep.DowntimePages)
	}
	// Zero pages moved no bytes: round 0 transferred only materialized data.
	if rep.Rounds[0].BytesCopied != 8*geometry.PageSize2M {
		t.Errorf("round 0 bytes = %d, want %d (8 data pages)", rep.Rounds[0].BytesCopied, 8*geometry.PageSize2M)
	}

	// The VM now lives entirely on the destination node.
	if len(vm.Nodes()) != 1 || vm.Nodes()[0].ID != dest.ID {
		t.Fatalf("post-migration nodes = %v, want [%d]", vm.Nodes(), dest.ID)
	}
	for _, hpa := range vm.RAMPages() {
		if !dest.Contains(hpa) {
			t.Errorf("RAM page %#x outside destination node", hpa)
		}
	}
	// Source node released and its memory scrubbed + returned.
	if owner, owned := h.Registry().OwnerOf(srcNode); owned {
		t.Errorf("source node still owned by %q", owner)
	}
	if a, _ := h.Allocator(srcNode); a.FreeBytes() != a.TotalBytes() {
		t.Errorf("source node not fully freed: %d of %d", a.FreeBytes(), a.TotalBytes())
	}
	probe := make([]byte, 4096)
	for _, hpa := range srcPages {
		if err := h.Memory().ReadPhys(hpa, probe); err != nil {
			t.Fatal(err)
		}
		if !allZero(probe) {
			t.Fatalf("source page %#x not scrubbed after migration", hpa)
		}
	}
	// Byte identity: every page matches the mirror (or is still zero).
	got := make([]byte, geometry.PageSize2M)
	zero := make([]byte, geometry.PageSize2M)
	for p := 0; p < 32; p++ {
		if err := vm.ReadGuest(uint64(p)*geometry.PageSize2M, got); err != nil {
			t.Fatal(err)
		}
		want := mirror[p]
		if want == nil {
			want = zero
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d content diverged across migration", p)
		}
	}
	// The guest keeps running: post-migration writes work and land in the
	// destination domain.
	if err := vm.WriteGuest(20*geometry.PageSize2M, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if vm.DirtyTracking() {
		t.Error("dirty tracking still armed after migration")
	}
}

func TestMigrateVMDefragAdmitsPendingVM(t *testing.T) {
	// The fragmentation scenario (§8.1): socket 0's three guest nodes are
	// all owned, so a new VM is refused even though socket 1 is empty.
	// Rebalancing one victim across sockets vacates a group and the
	// pending VM is admitted.
	h := bootSiloz(t)
	for _, name := range []string{"a", "b", "c"} {
		if _, err := h.CreateVM(kvmProc(), VMSpec{Name: name, Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "pending", Socket: 0, MemoryBytes: 64 * geometry.MiB}); err == nil {
		t.Fatal("socket 0 should be full")
	}
	dest := freeGuestNode(t, h, 1)
	if _, err := h.MigrateVM(context.Background(), "a", []int{dest.ID}, MigrateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "pending", Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
		t.Fatalf("pending VM still refused after rebalancing: %v", err)
	}
	// All four domains pairwise disjoint.
	vms := h.VMs()
	for i, a := range vms {
		for _, b := range vms[i+1:] {
			for _, hpa := range b.RAMPages() {
				if a.InDomain(hpa) {
					t.Fatalf("VM %q page %#x inside VM %q's domain", b.Name(), hpa, a.Name())
				}
			}
		}
	}
}

func TestMigrateVMRollbackOnCancel(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "rb", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	srcNode := vm.Nodes()[0].ID
	content := fillPage(2, 0x3C)
	if err := vm.WriteGuest(2*geometry.PageSize2M, content); err != nil {
		t.Fatal(err)
	}
	dest := freeGuestNode(t, h, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Keep the dirty set large so pre-copy never converges, and cancel
	// mid-flight: the next round boundary aborts and rolls back.
	_, err = h.MigrateVM(ctx, "rb", []int{dest.ID}, MigrateOptions{
		StopPages: 1, MaxRounds: 50,
		GuestStep: func(round int) error {
			if round == 1 {
				cancel()
			}
			for p := 8; p < 14; p++ {
				if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, []byte{byte(round + 1)}); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("cancelled migration reported success")
	}
	// The VM is intact on its source node; the destination is released.
	if len(vm.Nodes()) != 1 || vm.Nodes()[0].ID != srcNode {
		t.Fatalf("post-rollback nodes = %v, want [%d]", vm.Nodes(), srcNode)
	}
	if _, owned := h.Registry().OwnerOf(dest.ID); owned {
		t.Error("destination node still owned after rollback")
	}
	if a, _ := h.Allocator(dest.ID); a.FreeBytes() != a.TotalBytes() {
		t.Error("destination pages not freed after rollback")
	}
	if vm.DirtyTracking() {
		t.Error("dirty tracking still armed after rollback")
	}
	got := make([]byte, len(content))
	if err := vm.ReadGuest(2*geometry.PageSize2M, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("guest memory corrupted by rolled-back migration")
	}
	// The guest still runs, and a retry (without cancellation) succeeds.
	if err := vm.WriteGuest(9*geometry.PageSize2M, []byte("post-rollback")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.MigrateVM(context.Background(), "rb", []int{dest.ID}, MigrateOptions{}); err != nil {
		t.Fatalf("retry after rollback failed: %v", err)
	}
}

func TestMigrateVMDestValidation(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	other, err := h.CreateVM(kvmProc(), VMSpec{Name: "w", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	host := h.Topology().NodesOnSocket(0, numa.HostReserved)[0]
	if _, err := h.MigrateVM(ctx, "v", []int{host.ID}, MigrateOptions{}); err == nil {
		t.Error("host-reserved destination accepted")
	}
	if _, err := h.MigrateVM(ctx, "v", []int{vm.Nodes()[0].ID}, MigrateOptions{}); err == nil {
		t.Error("migrating onto the VM's own node accepted")
	}
	if _, err := h.MigrateVM(ctx, "v", []int{other.Nodes()[0].ID}, MigrateOptions{}); err == nil {
		t.Error("another tenant's node accepted as destination — exclusivity violated")
	}
	if _, err := h.MigrateVM(ctx, "v", nil, MigrateOptions{}); err == nil {
		t.Error("empty destination list accepted")
	}
	if _, err := h.MigrateVM(ctx, "ghost", []int{2}, MigrateOptions{}); !errors.Is(err, ErrVMNotFound) {
		t.Errorf("migrating unknown VM: err = %v, want ErrVMNotFound", err)
	}
	_ = other
}

func TestMigrateVMBaselineCrossSocket(t *testing.T) {
	h := bootBaseline(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "base", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	content := fillPage(0, 0x7E)
	if err := vm.WriteGuest(0, content); err != nil {
		t.Fatal(err)
	}
	destNode := h.Topology().NodesOnSocket(1, numa.HostReserved)[0]
	rep, err := h.MigrateVM(context.Background(), "base", []int{destNode.ID}, MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SourceNodes) != 1 || rep.SourceNodes[0] == destNode.ID {
		t.Errorf("baseline source nodes = %v", rep.SourceNodes)
	}
	for _, hpa := range vm.RAMPages() {
		if !destNode.Contains(hpa) {
			t.Errorf("RAM page %#x not on destination socket", hpa)
		}
	}
	got := make([]byte, len(content))
	if err := vm.ReadGuest(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("baseline migration corrupted guest memory")
	}
}

func TestMigrateVMMovesGuestPlacedRegions(t *testing.T) {
	// Unmediated regions (e.g. ROM) live in the VM's reserved groups; they
	// must move with the VM or the vacated source node would still hold
	// tenant pages after its release.
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{
		Name: "rom", Socket: 0, MemoryBytes: 32 * geometry.MiB,
		Regions: []Region{{Name: "bios", Type: RegionROM, Bytes: 64 * geometry.KiB}},
	})
	if err != nil {
		t.Fatal(err)
	}
	romGPA, err := vm.RegionGPA("bios")
	if err != nil {
		t.Fatal(err)
	}
	// ROM content is installed by the host before boot (direct write).
	romBytes := []byte("firmware image v1")
	oldROM, err := vm.RegionPages("bios")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Memory().WritePhys(oldROM[0], romBytes); err != nil {
		t.Fatal(err)
	}
	dest := freeGuestNode(t, h, 0)
	if _, err := h.MigrateVM(context.Background(), "rom", []int{dest.ID}, MigrateOptions{}); err != nil {
		t.Fatal(err)
	}
	newROM, err := vm.RegionPages("bios")
	if err != nil {
		t.Fatal(err)
	}
	if newROM[0] == oldROM[0] {
		t.Error("ROM pages did not move")
	}
	for _, pa := range newROM {
		if !dest.Contains(pa) {
			t.Errorf("ROM page %#x outside destination node", pa)
		}
	}
	got := make([]byte, len(romBytes))
	if err := vm.ReadGuest(romGPA, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, romBytes) {
		t.Error("ROM content lost in migration")
	}
	// Still read-only: a guest write exits and is emulated, not direct.
	before := vm.Exits()
	if err := vm.WriteGuest(romGPA, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if vm.Exits() == before {
		t.Error("post-migration ROM write took no exit — write protection lost")
	}
}

// TestMigrationCostFollowsDataHeld: a 128 MiB guest that holds two stamped
// pages migrates across sockets for what two pages cost. The host allocates
// no page-sized buffer and no row-store slab (one round trip first, so both
// sockets' arenas and table rows exist), the destination materializes exactly
// the rows the source held — the 62 pages of empty address space bring none
// to life — and the guest's bytes arrive.
func TestMigrationCostFollowsDataHeld(t *testing.T) {
	h := bootSiloz(t)
	const size = 128 * geometry.MiB
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "sparse", Socket: 0, MemoryBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	empty := h.Memory().LiveRows()
	stamps := map[uint64][]byte{
		3*geometry.PageSize2M + 4096: bytes.Repeat([]byte{0xc3}, 128),
		40*geometry.PageSize2M + 512: bytes.Repeat([]byte{0x3c}, 128),
	}
	for gpa, data := range stamps {
		if err := vm.WriteGuest(gpa, data); err != nil {
			t.Fatal(err)
		}
	}
	held := h.Memory().LiveRows() - empty
	if held < 2 || held > 4 {
		t.Fatalf("two 128-byte stamps materialized %d rows", held)
	}
	migrate := func(socket int) *MigrateReport {
		t.Helper()
		rep, err := h.MigrateVM(context.Background(), "sparse", freeGuestNodes(t, h, socket, size), MigrateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	migrate(1)
	migrate(0)

	before := h.Memory().LiveRows()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rep := migrate(1)
	runtime.ReadMemStats(&m1)
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 256*geometry.KiB {
		t.Errorf("migrating two stamped pages allocated %d bytes on the host, want under 256 KiB", grew)
	}
	if after := h.Memory().LiveRows(); after != before {
		t.Errorf("live rows %d -> %d across the migration: the destination must hold the %d rows the source held", before, after, held)
	}
	// The modelled transfer stays page-granular: two data pages.
	if rep.BytesCopied != 2*geometry.PageSize2M || rep.EPTRelocatedPages == 0 {
		t.Errorf("report %+v: want two pages' bytes copied and the tables relocated", rep)
	}
	for _, n := range vm.Nodes() {
		if n.Socket != 1 {
			t.Errorf("node %d still on socket %d", n.ID, n.Socket)
		}
	}
	for gpa, want := range stamps {
		got := make([]byte, len(want))
		if err := vm.ReadGuest(gpa, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("stamp at gpa %#x lost in migration", gpa)
		}
	}
	probe := make([]byte, geometry.PageSize2M)
	if err := vm.ReadGuest(17*geometry.PageSize2M, probe); err != nil || !allZero(probe) {
		t.Errorf("an untouched page does not read as zero after migration (err %v)", err)
	}
}

package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/geometry"
)

// TestConcurrentVMLifecycle churns CreateVM/WriteGuest/ReadGuest/DestroyVM
// from parallel goroutines (run under -race via make race-quick). Capacity
// failures under contention are expected — the point is that the lifecycle
// races safely and the allocator accounting balances to zero afterwards.
func TestConcurrentVMLifecycle(t *testing.T) {
	h := bootSiloz(t)
	const workers, iters = 6, 4
	errs := make(chan error, workers*iters*4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("vm-%d-%d", w, i)
				spec := VMSpec{Name: name, Socket: (w + i) % 2, MemoryBytes: 32 * geometry.MiB}
				vm, err := h.CreateVM(kvmProc(), spec)
				if err != nil {
					continue // node pool exhausted by peers; not an error
				}
				data := fillPage(w*iters+i, byte(w+1))[:8*geometry.KiB]
				gpa := uint64(geometry.PageSize2M) - 4*geometry.KiB // page-spanning
				if err := vm.WriteGuest(gpa, data); err != nil {
					errs <- fmt.Errorf("%s write: %w", name, err)
				}
				got := make([]byte, len(data))
				if err := vm.ReadGuest(gpa, got); err != nil {
					errs <- fmt.Errorf("%s read: %w", name, err)
				} else if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("%s round trip mismatch", name)
				}
				if err := h.DestroyVM(name); err != nil {
					errs <- fmt.Errorf("%s destroy: %w", name, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := len(h.VMs()); n != 0 {
		t.Errorf("%d VMs survived the churn", n)
	}
	// Every node's allocator balances: all memory back in the free pools.
	for _, n := range h.Topology().Nodes() {
		a, err := h.Allocator(n.ID)
		if err != nil {
			t.Fatal(err)
		}
		if a.FreeBytes() != a.TotalBytes() || a.UsedBytes() != 0 {
			t.Errorf("node %d accounting unbalanced: free %d of %d, used %d",
				n.ID, a.FreeBytes(), a.TotalBytes(), a.UsedBytes())
		}
	}
	// No stale exclusive ownership.
	for _, n := range h.Topology().Nodes() {
		if owner, owned := h.Registry().OwnerOf(n.ID); owned {
			t.Errorf("node %d still owned by %q", n.ID, owner)
		}
	}
}

// hotWriter is a live guest: a goroutine that stamps the first hotChunk
// bytes of each of the first hotPages pages, over and over, with a byte
// that changes every pass and is never zero (a zero stamp would be
// indistinguishable from a lost write).
type hotWriter struct {
	vm        *VM
	stop      chan struct{}
	firstPass chan struct{} // closed once every hot page has been stamped
	done      chan error
}

const (
	hotPages = 4
	hotChunk = 8 * geometry.KiB
)

func startHotWriter(vm *VM) *hotWriter {
	w := &hotWriter{vm: vm, stop: make(chan struct{}), firstPass: make(chan struct{}), done: make(chan error, 1)}
	go func() {
		buf := make([]byte, hotChunk)
		for pass := 0; ; pass++ {
			select {
			case <-w.stop:
				w.done <- nil
				return
			default:
			}
			for p := 0; p < hotPages; p++ {
				stamp := byte((pass+p)%255) + 1
				for i := range buf {
					buf[i] = stamp
				}
				if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, buf); err != nil {
					w.done <- err
					return
				}
			}
			if pass == 0 {
				close(w.firstPass)
			}
		}
	}()
	return w
}

// finish stops the writer, waits for it, and checks what it left behind:
// each hot page holds exactly one complete write — uniform, nonzero
// content — and the rest of the page is still zero.
func (w *hotWriter) finish(t *testing.T) {
	t.Helper()
	close(w.stop)
	if err := <-w.done; err != nil {
		t.Fatalf("writer of %q failed: %v", w.vm.Name(), err)
	}
	page := make([]byte, geometry.PageSize2M)
	for p := 0; p < hotPages; p++ {
		if err := w.vm.ReadGuest(uint64(p)*geometry.PageSize2M, page); err != nil {
			t.Fatal(err)
		}
		v := page[0]
		if v == 0 {
			t.Errorf("%q hot page %d lost its data", w.vm.Name(), p)
		}
		for i := 1; i < hotChunk; i++ {
			if page[i] != v {
				t.Fatalf("%q hot page %d torn at byte %d: %#x vs %#x", w.vm.Name(), p, i, page[i], v)
			}
		}
		if !allZero(page[hotChunk:]) {
			t.Errorf("%q hot page %d has stray bytes past the written chunk", w.vm.Name(), p)
		}
	}
}

// TestConcurrentWriterDuringMigration races a real writer goroutine against
// the pre-copy engine (no GuestStep determinism): the final memory image
// must reflect complete writes only, whichever side of the stop-and-copy
// each landed on. The migration starts only once the writer has stamped
// every hot page, however short a migration is.
func TestConcurrentWriterDuringMigration(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "live", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	dest := freeGuestNode(t, h, 0)

	w := startHotWriter(vm)
	<-w.firstPass
	rep, err := h.MigrateVM(context.Background(), "live", []int{dest.ID}, MigrateOptions{
		StopPages: 1, MaxRounds: 8,
	})
	w.finish(t)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesTotal != 32 {
		t.Errorf("pages total = %d", rep.PagesTotal)
	}
	// The guest is on the destination node and still writable.
	if len(vm.Nodes()) != 1 || vm.Nodes()[0].ID != dest.ID {
		t.Fatalf("post-migration nodes = %v", vm.Nodes())
	}
	if err := vm.WriteGuest(10*geometry.PageSize2M, []byte("after")); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentOppositeMigrations crosses two live migrations: one guest
// moves socket 0 -> 1 while another moves 1 -> 0, each with a writer
// running. The two engines read and write both sockets' DIMMs at once, in
// opposite directions — the arrangement that would deadlock if the bulk
// data path ever held row locks of two sockets, or took a socket's DIMMs in
// an order that depends on the direction of travel.
func TestConcurrentOppositeMigrations(t *testing.T) {
	h := bootSiloz(t)
	type guest struct {
		name      string
		from, to  int
		vm        *VM
		dest      int
		w         *hotWriter
		migrateEr error
	}
	guests := []*guest{{name: "east", from: 0, to: 1}, {name: "west", from: 1, to: 0}}
	for _, g := range guests {
		vm, err := h.CreateVM(kvmProc(), VMSpec{Name: g.name, Socket: g.from, MemoryBytes: 64 * geometry.MiB})
		if err != nil {
			t.Fatal(err)
		}
		g.vm = vm
	}
	for _, g := range guests {
		g.dest = freeGuestNode(t, h, g.to).ID
		g.w = startHotWriter(g.vm)
	}
	var wg sync.WaitGroup
	for _, g := range guests {
		<-g.w.firstPass
		wg.Add(1)
		go func(g *guest) {
			defer wg.Done()
			_, g.migrateEr = h.MigrateVM(context.Background(), g.name, []int{g.dest}, MigrateOptions{
				StopPages: 1, MaxRounds: 8,
			})
		}(g)
	}
	wg.Wait()
	for _, g := range guests {
		g.w.finish(t)
		if g.migrateEr != nil {
			t.Fatalf("migrating %q: %v", g.name, g.migrateEr)
		}
		if nodes := g.vm.Nodes(); len(nodes) != 1 || nodes[0].ID != g.dest || nodes[0].Socket != g.to {
			t.Errorf("%q post-migration nodes = %v, want node %d on socket %d", g.name, nodes, g.dest, g.to)
		}
	}
	for _, f := range h.Audit() {
		t.Errorf("audit: %s", f)
	}
}

// TestTLBCoherentAcrossLifecycle spins translators over a guest's whole RAM
// window — they are not pause-gated, like the serving loop's Runner.Issue —
// while every operation that rewrites the RAM layout or the tables commits:
// balloon inflate and deflate, hotplug grow, and a cross-socket migration
// there and back, which relocates the EPT tables each way. A translator that walked the EPTs before a
// commit must not be able to publish that frame after it: once each
// operation returns, the TLB agrees with a fresh walk on every mapped RAM
// page and no ballooned page translates.
func TestTLBCoherentAcrossLifecycle(t *testing.T) {
	h := bootSiloz(t)
	const name = "tlb"
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: name, Socket: 0, MemoryBytes: 32 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	const sweepPages = 32 // past the hot-plugged range: unmapped GPAs are swept too

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := uint64(i); ; n += 3 {
				select {
				case <-stop:
					return
				default:
				}
				// Ballooned and never-mapped pages fail by design.
				_, _ = vm.Translate(n%sweepPages*geometry.PageSize2M + n%geometry.PageSize2M)
			}
		}(i)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	check := func(op string) {
		t.Helper()
		h.mu.Lock()
		ram := append([]uint64(nil), vm.ram...)
		pages := int(vm.spec.MemoryBytes / geometry.PageSize2M)
		h.mu.Unlock()
		for p := len(ram); p < pages; p++ {
			gpa := uint64(p)*geometry.PageSize2M + 0x1240
			if got, err := vm.Translate(gpa); err == nil {
				t.Errorf("after %s: ballooned gpa %#x translates to %#x", op, gpa, got)
			}
		}
		for p, hpa := range ram {
			gpa := uint64(p)*geometry.PageSize2M + 0x1240
			got, err := vm.Translate(gpa)
			want, werr := vm.TranslateUncached(gpa)
			if err != nil || werr != nil || got != want || want != hpa+0x1240 {
				t.Errorf("after %s: gpa %#x: Translate = %#x, %v; walk = %#x, %v; frame %#x",
					op, gpa, got, err, want, werr, hpa)
			}
		}
	}

	migrate := func(socket int) error {
		_, err := h.MigrateVM(context.Background(), name,
			freeGuestNodes(t, h, socket, vm.Spec().MemoryBytes), MigrateOptions{})
		return err
	}
	balloon := func(target uint64) error {
		_, err := h.ResizeVM(name, vm.Spec().MemoryBytes-target)
		return err
	}
	steps := []struct {
		op  string
		run func() error
	}{
		{"balloon inflate", func() error { return balloon(8 * geometry.MiB) }},
		{"balloon deflate", func() error { return balloon(0) }},
		{"hotplug grow", func() error { _, err := h.ResizeVM(name, vm.Spec().MemoryBytes+16*geometry.MiB); return err }},
		{"migration to socket 1", func() error { return migrate(1) }},
		{"balloon inflate on socket 1", func() error { return balloon(16 * geometry.MiB) }},
		{"migration back to socket 0", func() error { return migrate(0) }},
		{"balloon deflate on socket 0", func() error { return balloon(0) }},
	}
	check("create")
	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.op, err)
		}
		check(s.op)
	}
	for _, f := range h.Audit() {
		t.Errorf("audit: %s", f)
	}
}

// TestWindowEndRacesMediatedAccess: one tenant ends refresh windows (an
// attacker's EndWindow) while another takes mediated accesses, each of which
// reads the window index to scope its rate limit. The index is read under
// the lock Refresh advances it under; under -race this pins that.
func TestWindowEndRacesMediatedAccess(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "io", Socket: 0, MemoryBytes: geometry.PageSize2M, MediatedBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const windows = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < windows; i++ {
			h.Memory().Refresh()
		}
	}()
	buf := make([]byte, 8)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if err := vm.ReadGuest(MediatedBase+64, buf); err != nil && !errors.Is(err, ErrThrottled) {
			t.Fatal(err)
		}
	}
	if w := h.Memory().Window(); w != windows {
		t.Errorf("window %d after %d refreshes", w, windows)
	}
}

// TestProbeSwapsWhileOpsRun installs and clears the lifecycle probe from one
// goroutine while another resizes and migrates (run under -race via make
// race-quick): the slot is swapped atomically, so an op sees one probe or
// none, and every event a probe receives is whole.
func TestProbeSwapsWhileOpsRun(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "s", Socket: 0, MemoryBytes: 16 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				h.SetLifecycleProbe(nil)
				return
			default:
			}
			h.SetLifecycleProbe(func(e Event) {
				if e.VM != vm || e.Kind == "" {
					t.Errorf("torn event %+v", e)
				}
			})
			h.SetLifecycleProbe(nil)
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := h.ResizeVM("s", uint64(4+i%3*4)*geometry.MiB); err != nil {
			t.Error(err)
		}
		dests, err := h.FreeNodes(i%2, 16*geometry.MiB)
		if err == nil {
			_, err = h.MigrateVM(context.Background(), "s", dests, MigrateOptions{})
		}
		if err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

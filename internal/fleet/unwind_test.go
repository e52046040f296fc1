package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geometry"
)

// countdownCtx is a context that reports cancellation from its k-th
// consultation on, whichever of Err and Done is asked. MoveVM consults its
// context at every point it can still back out of, so sweeping k fails a move
// at each of them in turn with no hook in the code under test.
type countdownCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func cancelFrom(k int) *countdownCtx { return &countdownCtx{Context: context.Background(), left: k} }

func (c *countdownCtx) cancelled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left--
	return c.left <= 0
}

func (c *countdownCtx) Err() error {
	if c.cancelled() {
		return context.Canceled
	}
	return nil
}

var closedChan = func() chan struct{} { ch := make(chan struct{}); close(ch); return ch }()

func (c *countdownCtx) Done() <-chan struct{} {
	if c.cancelled() {
		return closedChan
	}
	return nil // blocks forever in a select: not cancelled at this consultation
}

// TestMoveUnwindsAtEveryStep fails a cross-host move everywhere it can fail
// before its commit — a cancellation at each consultation of the context in
// turn, and the refusals a move can meet: a destination without capacity,
// a guest with extra regions, a source already inside a same-host
// migration. After every failed attempt the fleet is where it
// was: routing names the source, the guest is live there and nowhere else,
// the destination's capacity is what it was, the guest's bytes read back and
// it takes a store, the audit is clean — and once the obstacle is gone the
// same move goes through, so neither the latch nor the move window leaked.
func TestMoveUnwindsAtEveryStep(t *testing.T) {
	const name, src, dst = "g", "host-0", "host-1"
	bg := context.Background()
	stamp := bytes.Repeat([]byte("unwind"), 40)
	const stampGPA = 3*geometry.PageSize2M + 192

	type world struct {
		c      *Cluster
		before HostView // the destination's placement view before any attempt
	}
	hostView := func(t *testing.T, c *Cluster, host string) HostView {
		t.Helper()
		views, err := c.Views()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range views {
			if v.Host == host {
				return v
			}
		}
		t.Fatalf("no view of %s", host)
		return HostView{}
	}
	liveOn := func(c *Cluster) (hosts []string) {
		for _, h := range c.Hosts() {
			if _, ok := h.Hypervisor().VM(name); ok {
				hosts = append(hosts, h.Name())
			}
		}
		return hosts
	}
	// unmoved checks the post-failure invariants.
	unmoved := func(t *testing.T, w world, attempt string) {
		t.Helper()
		if at, err := w.c.HostOf(name); err != nil || at != src {
			t.Errorf("%s: routing names %q (err %v), want %s", attempt, at, err, src)
		}
		if live := liveOn(w.c); !reflect.DeepEqual(live, []string{src}) {
			t.Fatalf("%s: guest live on %v, want exactly [%s]", attempt, live, src)
		}
		if after := hostView(t, w.c, dst); !reflect.DeepEqual(after, w.before) {
			t.Errorf("%s: destination capacity changed:\nbefore %+v\nafter  %+v", attempt, w.before, after)
		}
		vm, _ := w.c.byName[src].Hypervisor().VM(name)
		got := make([]byte, len(stamp))
		if err := vm.ReadGuest(stampGPA, got); err != nil || !bytes.Equal(got, stamp) {
			t.Errorf("%s: the guest's bytes did not survive (err %v)", attempt, err)
		}
		if vm.DirtyTracking() {
			t.Errorf("%s: dirty logging still armed on the source", attempt)
		}
		if err := vm.WriteGuest(stampGPA, stamp); err != nil { // would block forever on a closed gate
			t.Errorf("%s: store after the failed move: %v", attempt, err)
		}
		if err := w.c.AuditIsolation(); err != nil {
			t.Errorf("%s: %v", attempt, err)
		}
	}
	moved := func(t *testing.T, w world) {
		t.Helper()
		if at, _ := w.c.HostOf(name); at != dst {
			t.Errorf("routing names %q after the move, want %s", at, dst)
		}
		if live := liveOn(w.c); !reflect.DeepEqual(live, []string{dst}) {
			t.Fatalf("guest live on %v after the move, want exactly [%s]", live, dst)
		}
		vm, _ := w.c.byName[dst].Hypervisor().VM(name)
		got := make([]byte, len(stamp))
		if err := vm.ReadGuest(stampGPA, got); err != nil || !bytes.Equal(got, stamp) {
			t.Errorf("the guest's bytes did not arrive (err %v)", err)
		}
		if err := w.c.AuditIsolation(); err != nil {
			t.Error(err)
		}
	}
	build := func(t *testing.T, spec core.VMSpec) world {
		t.Helper()
		c := testCluster(t, 2, FirstFit{})
		spec.Name, spec.VCPUs = name, 1
		if at, err := c.Admit(bg, testProc(), spec); err != nil || at != src {
			t.Fatalf("admit: on %q, err %v", at, err)
		}
		vm, _ := c.byName[src].Hypervisor().VM(name)
		if err := vm.WriteGuest(stampGPA, stamp); err != nil {
			t.Fatal(err)
		}
		return world{c: c}
	}
	plain := core.VMSpec{MemoryBytes: 128 * geometry.MiB, MinMemoryBytes: 64 * geometry.MiB}

	// Cancellation at every consultation, until a move runs out of them.
	for _, ballooned := range []bool{false, true} {
		label := map[bool]string{false: "cancel at k", true: "cancel at k, ballooned source"}[ballooned]
		t.Run(label, func(t *testing.T) {
			w := build(t, plain)
			if ballooned { // one more destination op, hence one more consultation
				op, err := w.c.SubmitResize(name, 64*geometry.MiB)
				if err == nil {
					err = op.Wait(bg)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			w.before = hostView(t, w.c, dst)
			for k := 1; ; k++ {
				if k > 16 {
					t.Fatal("a move consults its context more than 16 times: the sweep no longer ends")
				}
				_, err := w.c.MoveVM(cancelFrom(k), name, dst, 1, 3, int64(k))
				if err == nil {
					if k < 4 {
						t.Errorf("the move succeeded at k=%d: it consults its context fewer times than it has steps", k)
					}
					break
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("k=%d: %v, want a cancellation", k, err)
				}
				unmoved(t, w, label)
			}
			moved(t, w)
		})
	}

	// Refusals. clear removes the obstacle (nil: it cannot be removed).
	for _, tc := range []struct {
		name  string
		spec  core.VMSpec
		block func(t *testing.T, w world) (clear func())
		want  func(err error) bool
	}{
		{"destination without capacity", plain, func(t *testing.T, w world) func() {
			// First-fit: the rest of host-0, then host-1 socket by socket.
			for _, f := range []struct {
				name  string
				bytes uint64
			}{{"f0", 5 * 64 * geometry.MiB}, {"f1", 7 * 64 * geometry.MiB}, {"f2", 7 * 64 * geometry.MiB}, {"f3", 7 * 64 * geometry.MiB}} {
				admit(t, w.c, f.name, f.bytes)
			}
			if at, _ := w.c.HostOf("f3"); at != dst {
				t.Fatalf("filler f3 landed on %s", at)
			}
			return func() {
				op, err := w.c.SubmitDepart("f3")
				if err == nil {
					err = op.Wait(bg)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}, func(err error) bool { return errors.Is(err, core.ErrCapacityExhausted) }},
		{"guest with regions", core.VMSpec{MemoryBytes: 64 * geometry.MiB,
			Regions: []core.Region{{Name: "bios", Type: core.RegionROM, Bytes: 64 * geometry.KiB}}},
			func(*testing.T, world) func() { return nil },
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "regions") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := build(t, tc.spec)
			clear := tc.block(t, w)
			w.before = hostView(t, w.c, dst)
			for attempt := 0; attempt < 2; attempt++ { // twice: the first refusal must not wedge the second
				if _, err := w.c.MoveVM(bg, name, dst, 1, 3, 9); !tc.want(err) {
					t.Fatalf("refused with %v, not the refusal under test", err)
				}
				unmoved(t, w, tc.name)
			}
			if clear == nil {
				return
			}
			clear()
			if _, err := w.c.MoveVM(bg, name, dst, 1, 3, 9); err != nil {
				t.Fatalf("move after the obstacle was removed: %v", err)
			}
			moved(t, w)
		})
	}

	t.Run("source inside a same-host migration", func(t *testing.T) {
		w := build(t, plain)
		w.before = hostView(t, w.c, dst)
		hv := w.c.byName[src].Hypervisor()
		dests, err := hv.FreeNodes(1, plain.MemoryBytes)
		if err != nil {
			t.Fatal(err)
		}
		var moveErr error
		_, err = hv.MigrateVM(bg, name, dests, core.MigrateOptions{OnRound: func(r core.MigrateRound) {
			if r.Round == 0 {
				_, moveErr = w.c.MoveVM(bg, name, dst, 1, 3, 9)
			}
		}})
		if err != nil {
			t.Fatalf("the migration the move ran into: %v", err)
		}
		if !errors.Is(moveErr, core.ErrResizeBusy) {
			t.Fatalf("move of a migrating guest: %v, want core.ErrResizeBusy", moveErr)
		}
		unmoved(t, w, "mid-migration")
		if _, err := w.c.MoveVM(bg, name, dst, 1, 3, 9); err != nil {
			t.Fatalf("move after the migration: %v", err)
		}
		moved(t, w)
	})
}

// TestConcurrentWriterDuringCrossHostMove races a real writer goroutine
// against thirty moves: it stamps an increasing sequence number into one
// guest line for as long as the copy it writes to acknowledges the stores.
// The last number it saw acknowledged must be what the destination holds —
// a store acknowledged after the move's last look at the dirty log would
// be lost. Wired into `make race-quick`.
func TestConcurrentWriterDuringCrossHostMove(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, 2, FirstFit{})
	admit(t, c, "live", 64*geometry.MiB)
	const gpa = 7*geometry.PageSize2M + 4096
	var seq uint64
	for move := 0; move < 30; move++ {
		from, to := c.Hosts()[move%2], c.Hosts()[1-move%2]
		vm, ok := from.Hypervisor().VM("live")
		if !ok {
			t.Fatalf("move %d: guest not on %s", move, from.Name())
		}
		first, done := make(chan struct{}), make(chan uint64)
		go func(acked uint64) {
			buf := make([]byte, 8)
			for {
				binary.LittleEndian.PutUint64(buf, acked+1)
				if vm.WriteGuest(gpa, buf) != nil {
					done <- acked // the copy is gone: nothing more is acknowledged
					return
				}
				if acked++; acked == seq+1 {
					close(first)
				}
			}
		}(seq)
		<-first
		if _, err := c.MoveVM(ctx, "live", to.Name(), 0, 0, 0); err != nil {
			t.Fatalf("move %d: %v", move, err)
		}
		seq = <-done
		twin, ok := to.Hypervisor().VM("live")
		if !ok {
			t.Fatalf("move %d: guest not on %s", move, to.Name())
		}
		buf := make([]byte, 8)
		if err := twin.ReadGuest(gpa, buf); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(buf); got != seq {
			t.Fatalf("move %d: the source acknowledged store %d, the destination holds %d", move, seq, got)
		}
	}
	if err := c.AuditIsolation(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossHostMoveHoldsTheLatch: from inside a move — the "copied" probe —
// every layout operation issued straight on the source hypervisor, past the
// fleet's queue, is refused by the VM's lifecycle latch, a destroy included.
func TestCrossHostMoveHoldsTheLatch(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, 2, FirstFit{})
	admit(t, c, "held", 128*geometry.MiB)
	hv := c.Hosts()[0].Hypervisor()
	dests, err := hv.FreeNodes(1, 128*geometry.MiB)
	if err != nil {
		t.Fatal(err)
	}
	probed := false
	hv.SetLifecycleProbe(func(event string, _ *core.VM) {
		if event != core.ProbeMoveCopied {
			return
		}
		probed = true
		_, resizeErr := hv.ResizeVM("held", 64*geometry.MiB)
		_, migrateErr := hv.MigrateVM(ctx, "held", dests, core.MigrateOptions{})
		for op, err := range map[string]error{
			"DestroyVM": hv.DestroyVM("held"), "ResizeVM": resizeErr, "MigrateVM": migrateErr,
		} {
			if !errors.Is(err, core.ErrResizeBusy) {
				t.Errorf("%s on a moving VM's source: %v, want core.ErrResizeBusy", op, err)
			}
		}
	})
	if _, err := c.MoveVM(ctx, "held", "host-1", 0, 2, 5); err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Fatal("the copied probe never fired")
	}
	if err := c.AuditIsolation(); err != nil {
		t.Fatal(err)
	}
}

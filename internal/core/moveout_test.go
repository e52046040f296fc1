package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geometry"
)

// TestMoveOutFailsCleanlyAtEveryStep drives the source side of a cross-host
// move alone, between two hypervisors, and fails it at each place the engine
// can fail before its commit: a guest step that errors, a cancellation seen
// after a round, a twin destroyed or shrunk under the paused residual copy,
// and a twin too small for a resident page. Every failure must leave the source exactly
// as it was — layout, allocators, data, logging disarmed, gate open, latch
// free — and a clean MoveOut must then succeed, with commit run while the
// source is paused and latched and the source's capacity back afterwards.
func TestMoveOutFailsCleanlyAtEveryStep(t *testing.T) {
	const name, bytes = "v", 64 * geometry.MiB
	for _, tc := range []struct {
		name      string
		twinBytes uint64
		opt       func(vm *VM, dst *Hypervisor, cancel context.CancelFunc) MigrateOptions
		want      func(err error) bool
	}{
		{"guest step error", bytes, func(*VM, *Hypervisor, context.CancelFunc) MigrateOptions {
			return MigrateOptions{GuestStep: func(int) error { return errInjected }}
		}, func(err error) bool { return errors.Is(err, errInjected) }},
		{"cancel in a round event", bytes, func(vm *VM, _ *Hypervisor, cancel context.CancelFunc) MigrateOptions {
			vm.Hypervisor().SetLifecycleProbe(func(Event) { cancel() })
			return MigrateOptions{}
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"twin destroyed under the paused residue", bytes, func(vm *VM, dst *Hypervisor, _ context.CancelFunc) MigrateOptions {
			return MigrateOptions{GuestStep: func(int) error {
				if err := vm.WriteGuest(5*geometry.PageSize2M, []byte{0x45}); err != nil {
					return err
				}
				return dst.DestroyVM(name)
			}}
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "destroyed") }},
		{"twin shrunk under the paused residue", bytes, func(vm *VM, dst *Hypervisor, _ context.CancelFunc) MigrateOptions {
			shrunk := false
			return MigrateOptions{GuestStep: func(int) error {
				if err := vm.WriteGuest(20*geometry.PageSize2M, []byte{0x54}); err != nil || shrunk {
					return err
				}
				shrunk = true
				_, err := dst.ResizeVM(name, bytes/2)
				return err
			}}
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "page 20 is beyond") }},
		{"resident page beyond the twin's usable prefix", bytes / 2, func(*VM, *Hypervisor, context.CancelFunc) MigrateOptions {
			return MigrateOptions{}
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "usable prefix") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := bootSiloz(t), bootSiloz(t)
			empty := snapshotHost(src)
			vm, err := src.CreateVM(kvmProc(), VMSpec{Name: name, Socket: 0, MemoryBytes: bytes})
			if err != nil {
				t.Fatal(err)
			}
			fillPattern(t, vm)
			twin := func(bytes uint64) *VM {
				t.Helper()
				_ = dst.DestroyVM(name)
				twin, err := dst.CreateVM(kvmProc(), VMSpec{Name: name, Socket: 1, MemoryBytes: bytes})
				if err != nil {
					t.Fatal(err)
				}
				return twin
			}
			before := snapshotHost(src)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			committed := 0
			err = src.MoveOut(ctx, name, twin(tc.twinBytes), tc.opt(vm, dst, cancel), func(*MigrateReport) { committed++ })
			if !tc.want(err) {
				t.Fatalf("MoveOut failed with %v, not the injected failure", err)
			}
			src.SetLifecycleProbe(nil)
			if committed != 0 {
				t.Error("a failed move ran its commit")
			}
			if vm.DirtyTracking() {
				t.Error("dirty logging still armed after the failure")
			}
			checkIntact(t, src, vm, before)
			fillPattern(t, vm) // a store goes through: the gate is open again

			// The latch is free: the same move, unhindered, goes through.
			dest := twin(bytes)
			err = src.MoveOut(context.Background(), name, dest, MigrateOptions{MaxRounds: 1}, func(rep *MigrateReport) {
				committed++
				if vm.pauseMu.TryRLock() {
					vm.pauseMu.RUnlock()
					t.Error("commit ran with the source's gate open")
				}
				if _, err := src.ResizeVM(name, bytes/2); !errors.Is(err, ErrResizeBusy) {
					t.Errorf("resize inside commit: %v, want ErrResizeBusy", err)
				}
				if rep.PagesCopied != len(vm.ram) || rep.BytesCopied != bytes {
					t.Errorf("report %+v, want every stamped page charged whole", rep)
				}
			})
			if err != nil || committed != 1 {
				t.Fatalf("clean MoveOut: err %v, commit ran %d times", err, committed)
			}
			if _, ok := src.VM(name); ok {
				t.Error("source copy survives its move")
			}
			if err := vm.WriteGuest(0, []byte{1}); err == nil {
				t.Error("the destroyed source acknowledged a store")
			}
			if after := snapshotHost(src); !reflect.DeepEqual(empty, after) {
				t.Errorf("source host did not get its capacity back:\nbefore %+v\nafter  %+v", empty, after)
			}
			for p := range dest.ram {
				var got [1]byte
				if err := dest.ReadGuest(uint64(p)*geometry.PageSize2M, got[:]); err != nil || got[0] != byte(0x40+p) {
					t.Errorf("twin page %d reads %#x (err %v), want %#x", p, got[0], err, 0x40+p)
				}
			}
			for _, h := range []*Hypervisor{src, dst} {
				if bad := h.Audit(); len(bad) != 0 {
					t.Errorf("audit: %v", bad)
				}
			}
		})
	}
}

package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/memctrl"
	"repro/internal/migrate"
	"repro/internal/mitigation"
	"repro/internal/numa"
	"repro/internal/rowcount"
)

// The ladder times layers from outside: it calls the same public functions
// the program under test calls, in the same order, in batches large enough
// that the two timer reads around a batch are negligible next to it.

// batchAccesses is the batch size of the replay ladders.
const batchAccesses = 65_536

// batches calls fn on consecutive [lo, hi) ranges of at most batchAccesses
// items covering [0, n).
func batches(n int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += batchAccesses {
		fn(lo, min(lo+batchAccesses, n))
	}
}

// firstErr keeps the first error a replay loop meets, so the loop body stays
// one call per item.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// newController builds a DDR4-2933 controller with the core's usual ten
// outstanding accesses, as serve's stations and the perf experiments do.
func newController(mapper addr.Mapper, homeSocket int, trackActivations bool, d mitigation.Mitigation) (*memctrl.Controller, error) {
	return memctrl.New(memctrl.Config{
		Mapper: mapper, Timing: memctrl.DDR4_2933(), MLPWindow: 10, HomeSocket: homeSocket,
		TrackActivations: trackActivations, Mitigation: d,
	})
}

// rung runs fn inside one span named layer.name, credited with ops
// operations.
func (t *tracer) rung(layer, name string, ops int, fn func()) {
	t.begin(layer, name)
	fn()
	t.end(int64(ops))
}

// recordingDefense forwards every call to the mitigation it wraps and keeps
// the activation stream the controller fed it, so the ladder can replay that
// exact stream through a fresh instance with nothing else in the loop.
type recordingDefense struct {
	mitigation.Mitigation
	acts []mitigation.Activation
}

func (r *recordingDefense) OnActivate(ev mitigation.Activation, refresh mitigation.RefreshFn) {
	r.acts = append(r.acts, ev)
	r.Mitigation.OnActivate(ev, refresh)
}

// actPrefix is how many activations an actDigest hashes: few enough that both
// stations of serve-churn reach it before the first churn event, at either
// size, while each still serves one tenant from where it booted.
const actPrefix = 1024

// actDigest summarises an activation stream: how many activations, and an
// FNV-1a hash over the (bank, row) of the first actPrefix of them.
type actDigest struct {
	n   int
	sum uint64
}

func (d *actDigest) add(ev mitigation.Activation) {
	if d.n < actPrefix {
		d.sum = (d.sum ^ uint64(ev.Bank)<<32 ^ uint64(ev.Row)) * 1099511628211
	}
	d.n++
}

// digestingDefense forwards every call to the mitigation it wraps and digests
// the activations a station controller feeds it: the one view of the access
// stream inside a serve.Loop that its caller has.
type digestingDefense struct {
	mitigation.Mitigation
	actDigest
}

func (d *digestingDefense) OnActivate(ev mitigation.Activation, refresh mitigation.RefreshFn) {
	d.add(ev)
	d.Mitigation.OnActivate(ev, refresh)
}

// observeRung replays an activation stream through a fresh defense instance,
// one span per batch, and returns the refreshes it injected per thousand
// activations.
func observeRung(tr *tracer, kind string, d mitigation.Mitigation, acts []mitigation.Activation) float64 {
	if d == nil || len(acts) == 0 {
		return 0
	}
	refreshes := 0
	sink := func(_, _ int) { refreshes++ }
	batches(len(acts), func(lo, hi int) {
		tr.rung("mitigation", "observe."+kind, hi-lo, func() {
			for _, ev := range acts[lo:hi] {
				d.OnActivate(ev, sink)
			}
		})
	})
	var n int
	for _, ev := range acts {
		n += ev.Count
	}
	return 1e3 * float64(refreshes) / float64(n)
}

// rowcountRung replays the activated rows into a rowcount table the way the
// controller and the DRAM module count activations, then times a reset.
func rowcountRung(tr *tracer, acts []mitigation.Activation) {
	if len(acts) == 0 {
		return
	}
	var table rowcount.Table[int32]
	batches(len(acts), func(lo, hi int) {
		tr.rung("rowcount", "add", hi-lo, func() {
			for _, ev := range acts[lo:hi] {
				table.Add(ev.Row, int32(ev.Count))
			}
		})
	})
	tr.rung("rowcount", "reset", 1, table.Reset)
}

// lifeStep is one lifecycle operation of a ladder script.
type lifeStep struct {
	kind   string // create, resize, migrate, defrag, destroy
	vm     string
	bytes  uint64 // create size or resize target
	socket int    // create socket or migration destination
}

// freeNodesOnSocket lists unowned guest nodes of a socket with room for
// bytes, the way serve's migrate event picks its destination.
func freeNodesOnSocket(h *core.Hypervisor, socket int, bytes uint64) ([]int, error) {
	var ids []int
	var capacity uint64
	for _, n := range h.Topology().NodesOnSocket(socket, numa.GuestReserved) {
		if _, owned := h.Registry().OwnerOf(n.ID); owned {
			continue
		}
		a, err := h.Allocator(n.ID)
		if err != nil {
			return nil, err
		}
		ids = append(ids, n.ID)
		if capacity += a.FreeBytes(); capacity >= bytes {
			return ids, nil
		}
	}
	return nil, fmt.Errorf("no free destination for %d bytes on socket %d", bytes, socket)
}

// lifecycleLadder runs a script of lifecycle operations against a host, each
// inside its own span, then times the three auditors and the admission
// planner. Migrations dirty one page per pre-copy round, as the serving and
// fleet workloads do.
func lifecycleLadder(ctx context.Context, tr *tracer, h *core.Hypervisor, seed int64, steps []lifeStep) error {
	rng := rand.New(rand.NewSource(salted(seed, saltLadder)))
	eng := migrate.NewEngine(h)
	for _, s := range steps {
		var err error
		switch s.kind {
		case "create":
			tr.rung("core", "create", 1, func() {
				var vm *core.VM
				vm, err = h.CreateVM(kvmProc, core.VMSpec{Name: s.vm, Socket: s.socket, MemoryBytes: s.bytes, MinMemoryBytes: 64 * geometry.MiB})
				if err == nil { // touch two pages so teardown and moves carry data
					err = vm.WriteGuest(0, []byte{1})
				}
				if err == nil {
					err = vm.WriteGuest(geometry.PageSize2M, []byte{2})
				}
			})
		case "resize":
			tr.rung("core", "resize", 1, func() {
				if _, err = h.PreviewResize(s.vm, s.bytes); err == nil {
					_, err = h.ResizeVM(s.vm, s.bytes)
				}
			})
		case "migrate":
			vm, ok := h.VM(s.vm)
			if !ok {
				return fmt.Errorf("ladder: no VM %q", s.vm)
			}
			dests, derr := freeNodesOnSocket(h, s.socket, vm.Spec().MemoryBytes)
			if derr != nil {
				return derr
			}
			pages := int(vm.Spec().MemoryBytes / geometry.PageSize2M)
			opt := core.MigrateOptions{MaxRounds: 16, StopPages: 8, GuestStep: func(round int) error {
				gpa := uint64(rng.Intn(pages)) * geometry.PageSize2M
				return vm.WriteGuest(gpa, []byte{byte(round), 1})
			}}
			tr.rung("core", "migrate", 1, func() { _, err = h.MigrateVM(ctx, s.vm, dests, opt) })
		case "defrag":
			tr.rung("migrate", "defrag", 1, func() { _, err = eng.Defragment(ctx, 2) })
		case "destroy":
			tr.rung("core", "destroy", 1, func() { err = h.DestroyVM(s.vm) })
		default:
			err = fmt.Errorf("unknown step kind %q", s.kind)
		}
		if err != nil {
			return fmt.Errorf("ladder: %s %s: %w", s.kind, s.vm, err)
		}
	}
	var bad []string
	tr.rung("core", "audit", 1, func() { bad = h.Audit() })
	if len(bad) > 0 {
		return fmt.Errorf("ladder: core.Audit: %v", bad)
	}
	var err error
	tr.rung("migrate", "audit", 1, func() { err = migrate.AuditIsolation(h) })
	if err != nil {
		return err
	}
	planner := migrate.NewPlanner(h)
	tr.rung("migrate", "plan", 1, func() {
		_, err = planner.PlanAdmission(core.VMSpec{Name: "probe", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	})
	return err
}

// microLadder times the allocator, the cgroup registry and the DRAM data
// path on one unowned guest node of the host: 2 MiB page alloc/free pairs,
// node expand/shrink pairs on a scratch cgroup, and write/read/scrub of
// whole 2 MiB pages.
func microLadder(tr *tracer, h *core.Hypervisor) error {
	var free []*numa.Node
	for _, n := range h.Topology().NodesOfKind(numa.GuestReserved) {
		if _, owned := h.Registry().OwnerOf(n.ID); !owned {
			free = append(free, n)
		}
	}
	if len(free) < 2 {
		return fmt.Errorf("ladder: need two unowned guest nodes, host has %d", len(free))
	}
	a, err := h.Allocator(free[0].ID)
	if err != nil {
		return err
	}

	const pairs = 4096
	tr.rung("alloc", "alloc_free", 2*pairs, func() {
		for i := 0; i < pairs && err == nil; i++ {
			var pa uint64
			if pa, err = a.Alloc(alloc.Order2M); err == nil {
				err = a.Free(pa, alloc.Order2M)
			}
		}
	})
	if err != nil {
		return err
	}

	reg := h.Registry()
	if _, err := reg.Create("ladder", []int{free[0].ID}); err != nil {
		return err
	}
	const flips = 256
	tr.rung("numa", "expand_shrink", flips, func() {
		for i := 0; i < flips && err == nil; i++ {
			if err = reg.Expand("ladder", []int{free[1].ID}); err == nil {
				err = reg.Shrink("ladder", []int{free[1].ID})
			}
		}
	})
	if derr := reg.Destroy("ladder"); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}

	// DRAM as a data store: the copy and scrub path of migration, moves
	// and teardown.
	const pages = 4
	mem := h.Memory()
	buf := make([]byte, geometry.PageSize2M)
	for i := range buf {
		buf[i] = byte(i)
	}
	var pas []uint64
	for i := 0; i < pages; i++ {
		pa, err := a.Alloc(alloc.Order2M)
		if err != nil {
			return err
		}
		pas = append(pas, pa)
	}
	for _, op := range []struct {
		name string
		fn   func(pa uint64) error
	}{
		{"write", func(pa uint64) error { return mem.WritePhys(pa, buf) }},
		{"read", func(pa uint64) error { return mem.ReadPhys(pa, buf) }},
		{"scrub", func(pa uint64) error { return mem.ScrubPhys(pa, len(buf)) }},
	} {
		tr.rung("dram", op.name, pages*len(buf), func() {
			for _, pa := range pas {
				if err == nil {
					err = op.fn(pa)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return a.FreePages(alloc.Order2M, pas)
}

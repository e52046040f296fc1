package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/geometry"
	"repro/internal/migrate"
)

// fleetGeometry is the fleet lab box: 8 subarray groups of 64 MiB per
// socket, so each socket carves into 1 host + 7 guest nodes (896 MiB of
// guest capacity per host).
func fleetGeometry() geometry.Geometry {
	g := serveGeometry()
	g.RowsPerBank = 4096
	return g
}

const (
	fleetHosts      = 2
	fleetCopyGiBps  = 12
	fleetTouchPages = 2
	// moveDirtyPages is how many pages a guest dirties while it moves, and
	// moveDirtySeed picks which. The page is the same for every --seed:
	// whether it is one of the two the guest had already stamped decides 2 MiB
	// of copy and of destination heap, 2.5-4 % of a trial's bytes.
	moveDirtyPages = 1
	moveDirtySeed  = 1
)

// fleetShape sizes the trace: rounds of arrivals, each round admitting one
// guest of each of the first classes arrival classes.
type fleetShape struct {
	rounds, classes int
}

func fleetShapeFor(sz size) fleetShape {
	if sz == sizeSmoke {
		return fleetShape{rounds: 1, classes: 2}
	}
	return fleetShape{rounds: 4, classes: len(arrivalClasses)}
}

// arrivalClasses is the per-round mix: every guest size once with a one-round
// stay and once with a two-round stay, the larger two-round guests shrinking
// to the balloon floor mid-life. Resizes only ever shrink: a grow is refused
// whenever the placement policy has packed the guest's socket full, and the
// benchmark runs no operation that may fail.
var arrivalClasses = []struct {
	bytes    uint64
	lifetime int
	shrink   bool
}{
	{96 * geometry.MiB, 2, true}, {64 * geometry.MiB, 1, false}, {128 * geometry.MiB, 1, false},
	{64 * geometry.MiB, 2, false}, {96 * geometry.MiB, 1, false}, {128 * geometry.MiB, 2, true},
}

const fleetMaxLifetime = 2

// fleetTrace builds the arrival trace. It is the same for every seed: the
// scheduler's response to placement is chaotic (one swapped arrival changes
// how many VMs it later migrates, and migrations are most of the cost), so a
// seeded order would make host cost per operation incomparable across
// seeds. The seed decides the data instead: what each guest writes.
func fleetTrace(shape fleetShape) []fleet.Arrival {
	var out []fleet.Arrival
	for round := 0; round < shape.rounds; round++ {
		for i := 0; i < shape.classes; i++ {
			c := arrivalClasses[(i+round)%shape.classes] // rotate which class lands first
			a := fleet.Arrival{
				Round:       round,
				Name:        fmt.Sprintf("vm-%05d", len(out)),
				Bytes:       c.bytes,
				MinBytes:    64 * geometry.MiB,
				DepartRound: round + c.lifetime,
				ResizeRound: -1,
			}
			if c.shrink {
				a.ResizeRound, a.ResizeBytes = round+1, a.MinBytes
			}
			out = append(out, a)
		}
	}
	return out
}

// fleetWorld is one fleet-churn trial: a freshly booted 2-host cluster, its
// scheduler, and the arrival trace.
type fleetWorld struct {
	cluster *fleet.Cluster
	sched   *fleet.Scheduler
	trace   []fleet.Arrival
	shape   fleetShape
	seed    int64
	tr      *tracer

	admitted int
	moved    int
}

func buildFleet(seed int64, sz size, tr *tracer) (world, error) { return newFleetWorld(seed, sz, tr) }

func newFleetWorld(seed int64, sz size, tr *tracer) (*fleetWorld, error) {
	shape := fleetShapeFor(sz)
	cluster, err := fleet.New(fleet.Config{
		Hosts:     fleetHosts,
		Core:      core.Config{Geometry: fleetGeometry(), Profiles: []dram.Profile{labProfile()}},
		Policy:    fleet.SilozAware{},
		Workers:   1,
		CopyGiBps: fleetCopyGiBps,
	})
	if err != nil {
		return nil, err
	}
	return &fleetWorld{
		cluster: cluster,
		sched:   fleet.NewScheduler(cluster, fleet.SchedulerConfig{Seed: moveDirtySeed, DirtyPages: moveDirtyPages}),
		trace:   fleetTrace(shape),
		shape:   shape, seed: seed, tr: tr,
	}, nil
}

// fleetRun is the mutable state of one replay.
type fleetRun struct {
	w      *fleetWorld
	ctx    context.Context
	o      *outcome
	report strings.Builder
}

// op runs one control-plane operation inside a span, counting it and any
// error it returns.
func (r *fleetRun) op(layer, name string, fn func() error) {
	r.w.tr.begin(layer, name)
	err := fn()
	r.w.tr.end(1)
	r.o.ops++
	if err != nil {
		r.o.failed++
		fmt.Fprintf(&r.report, "%s.%s failed: %v\n", layer, name, err)
	}
}

// settle runs a batch of queued host ops, one span each: submit, then wait
// for the host's event loop to finish it.
func (r *fleetRun) settle(name string, submit []func() (*fleet.Op, error)) {
	for _, s := range submit {
		r.op("fleet", name, func() error {
			op, err := s()
			if err != nil {
				return err
			}
			return op.Wait(r.ctx)
		})
	}
}

func (w *fleetWorld) run(ctx context.Context) (*outcome, error) {
	r := &fleetRun{w: w, ctx: ctx, o: &outcome{sim: map[string]float64{}, layer: map[string]float64{}}}
	c := w.cluster
	arrivalsAt := map[int][]fleet.Arrival{}
	for _, a := range w.trace {
		arrivalsAt[a.Round] = append(arrivalsAt[a.Round], a)
	}
	departAt := map[int][]string{}
	resizeAt := map[int][]fleet.Arrival{}
	stampRng := rand.New(rand.NewSource(salted(w.seed, saltStamp)))
	stamp := make([]byte, 128)

	var peakStranded float64
	lastRound := w.shape.rounds + fleetMaxLifetime
	for round := 0; round <= lastRound; round++ {
		// Departures due this round.
		var departs []func() (*fleet.Op, error)
		for _, name := range departAt[round] {
			departs = append(departs, func() (*fleet.Op, error) { return c.SubmitDepart(name) })
		}
		r.settle("depart", departs)

		// Arrivals, synchronous, in trace order.
		for _, a := range arrivalsAt[round] {
			var hostName string
			r.op("fleet", "admit", func() error {
				var err error
				hostName, err = c.Admit(ctx, kvmProc, core.VMSpec{
					Name: a.Name, MemoryBytes: a.Bytes, MinMemoryBytes: a.MinBytes, VCPUs: 1,
				})
				return err
			})
			if hostName == "" {
				continue
			}
			w.admitted++
			departAt[a.DepartRound] = append(departAt[a.DepartRound], a.Name)
			if a.ResizeRound >= 0 {
				resizeAt[a.ResizeRound] = append(resizeAt[a.ResizeRound], a)
			}
			// Stamp guest pages so moves and teardown carry real data.
			h, err := c.Host(hostName)
			if err != nil {
				return nil, err
			}
			vm, _ := h.Hypervisor().VM(a.Name)
			for p := 0; p < fleetTouchPages; p++ {
				stampRng.Read(stamp)
				if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, stamp); err != nil {
					return nil, fmt.Errorf("stamp %s: %w", a.Name, err)
				}
			}
		}

		// Scheduled resizes.
		var resizes []func() (*fleet.Op, error)
		for _, a := range resizeAt[round] {
			resizes = append(resizes, func() (*fleet.Op, error) { return c.SubmitResize(a.Name, a.ResizeBytes) })
		}
		r.settle("resize", resizes)

		// One explicit cross-host move, mid-trace: the first live VM goes
		// wherever the policy places it off its current host.
		if round == w.shape.rounds/2 {
			if names := c.VMs(); len(names) > 0 {
				r.op("fleet", "move", func() error { return w.moveOffHost(ctx, names[0]) })
			}
		}

		r.op("fleet", "round", func() error {
			_, err := w.sched.Round(ctx)
			return err
		})
		r.op("fleet", "audit", c.AuditIsolation)
		r.op("fleet", "metrics", func() error {
			m, err := c.Metrics()
			if err == nil {
				peakStranded = max(peakStranded, m.StrandedFraction())
				fmt.Fprintf(&r.report, "round %d: %d VMs, %d/%d nodes owned, %d bytes stranded\n",
					round, m.VMs, m.OwnedNodes, m.GuestNodes, m.StrandedBytes)
			}
			return err
		})
	}

	m, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	st := c.Stats()
	r.o.sim["sim_stranded_frac"] = peakStranded
	r.o.sim["sim_admit_frac"] = float64(w.admitted) / float64(len(w.trace))
	r.o.sim["sim_downtime_ms"] = st.DowntimeMs(fleetCopyGiBps)
	fmt.Fprintf(&r.report, "stats %+v\nmetrics %+v\n", st, *m)
	r.o.report = r.report.String()
	return r.o, nil
}

// moveOffHost moves a VM to the policy's choice among the other hosts.
func (w *fleetWorld) moveOffHost(ctx context.Context, name string) error {
	c := w.cluster
	src, err := c.HostOf(name)
	if err != nil {
		return err
	}
	h, err := c.Host(src)
	if err != nil {
		return err
	}
	vm, ok := h.Hypervisor().VM(name)
	if !ok {
		return fmt.Errorf("VM %q not live on %s", name, src)
	}
	views, err := c.Views()
	if err != nil {
		return err
	}
	p, err := c.Policy().Place(fleet.Request{
		Name: name, GuestBytes: migrate.GuestBytes(vm.Spec()), ExcludeHosts: map[string]bool{src: true},
	}, views)
	if err != nil {
		return err
	}
	if _, err := c.MoveVM(ctx, name, p.Host, p.Socket, moveDirtyPages, moveDirtySeed); err != nil {
		return err
	}
	w.moved++
	return nil
}

func (w *fleetWorld) check(o *outcome) error {
	if o.failed != 0 {
		return fmt.Errorf("%d control-plane operations failed:\n%s", o.failed, o.report)
	}
	if w.moved != 1 {
		return fmt.Errorf("the explicit cross-host move did not run")
	}
	c := w.cluster
	if err := c.AuditIsolation(); err != nil {
		return err
	}
	for _, h := range c.Hosts() {
		if bad := h.Hypervisor().Audit(); len(bad) > 0 {
			return fmt.Errorf("core.Audit on %s: %s", h.Name(), strings.Join(bad, "; "))
		}
		if err := migrate.AuditIsolation(h.Hypervisor()); err != nil {
			return fmt.Errorf("%s: %w", h.Name(), err)
		}
	}
	// Capacity conservation: every traced VM has departed by the last
	// round, so every guest node is back in the free pool.
	m, err := c.Metrics()
	if err != nil {
		return err
	}
	if m.VMs != 0 || m.OwnedNodes != 0 || m.FreeBytes != m.TotalGuestBytes {
		return fmt.Errorf("capacity not conserved at trace end: %d VMs, %d owned nodes, %d of %d bytes free",
			m.VMs, m.OwnedNodes, m.FreeBytes, m.TotalGuestBytes)
	}
	return nil
}

func (w *fleetWorld) close() { w.cluster.Close() }

var fleetChurn = &workloadDef{
	name:   "fleet-churn",
	op:     "control-plane op",
	why:    "Control plane: fleet admit/resize/depart/move/rebalance/audit over migrate, core lifecycle, alloc, numa and ept, with dram used as a data store (copy, scrub) instead of an ACT counter.",
	build:  buildFleet,
	ladder: fleetLadder,
}

// fleetLadder times what the replay's own spans cannot separate: cluster
// boot per host, the view snapshot and each placement policy's decision over
// it on a part-filled cluster, then the lifecycle, allocator, registry and
// DRAM data-path rungs on a standalone host of the same geometry.
func fleetLadder(ctx context.Context, seed int64, sz size, tr *tracer, _ map[string]float64) error {
	var w *fleetWorld
	var err error
	tr.rung("fleet", "boot", fleetHosts, func() { w, err = newFleetWorld(seed, sz, nil) })
	if err != nil {
		return err
	}
	defer w.close()
	for _, a := range w.trace[:min(len(arrivalClasses), len(w.trace))] {
		if _, err := w.cluster.Admit(ctx, kvmProc, core.VMSpec{Name: a.Name, MemoryBytes: a.Bytes, MinMemoryBytes: a.MinBytes, VCPUs: 1}); err != nil {
			return err
		}
	}
	const decisions = 64
	var views []fleet.HostView
	tr.rung("fleet", "views", decisions, func() {
		for i := 0; i < decisions && err == nil; i++ {
			views, err = w.cluster.Views()
		}
	})
	if err != nil {
		return err
	}
	for _, p := range fleet.Policies() {
		tr.rung("fleet", "place."+p.Name(), decisions*len(arrivalClasses), func() {
			for i := 0; i < decisions; i++ {
				for _, c := range arrivalClasses {
					if _, perr := p.Place(fleet.Request{Name: "probe", GuestBytes: c.bytes}, views); perr != nil && err == nil {
						err = perr
					}
				}
			}
		})
	}
	if err != nil {
		return err
	}

	h, err := core.Boot(core.Config{Geometry: fleetGeometry(), Profiles: []dram.Profile{labProfile()}}, core.ModeSiloz)
	if err != nil {
		return err
	}
	defer h.Shutdown()
	steps := []lifeStep{
		{kind: "create", vm: "a", bytes: 64 * geometry.MiB},
		{kind: "create", vm: "b", bytes: 96 * geometry.MiB},
		{kind: "create", vm: "c", bytes: 128 * geometry.MiB},
		{kind: "resize", vm: "b", bytes: 64 * geometry.MiB},
		{kind: "resize", vm: "c", bytes: 64 * geometry.MiB},
		{kind: "migrate", vm: "a", socket: 1},
		{kind: "destroy", vm: "b"},
		{kind: "defrag"},
		{kind: "destroy", vm: "a"},
		{kind: "destroy", vm: "c"},
	}
	if err := lifecycleLadder(ctx, tr, h, seed, steps); err != nil {
		return err
	}
	return microLadder(tr, h)
}

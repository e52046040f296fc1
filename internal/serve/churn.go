package serve

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/migrate"
	"repro/internal/stats"
)

// EventKind names a control-plane churn event.
type EventKind string

const (
	// EventMigrate live-migrates a tenant cross-socket.
	EventMigrate EventKind = "migrate"
	// EventResize balloon/hotplug-resizes a tenant to TargetBytes.
	EventResize EventKind = "resize"
	// EventDefrag runs the Siloz defragmentation engine on the host
	// (errors on baseline hosts — the error is the result).
	EventDefrag EventKind = "defrag"
)

// Event is one control-plane action replayed against a serving tenant at
// a virtual time. Events execute between requests, in AtNs order.
type Event struct {
	// AtNs is the virtual time the event fires.
	AtNs float64
	// Kind selects the mechanism.
	Kind EventKind
	// Tenant names the target VM (for EventDefrag, any serving tenant:
	// the defragmentation engine runs over the whole host).
	Tenant string
	// TargetBytes is the resize target (EventResize).
	TargetBytes uint64
	// DestSocket is the destination socket (EventMigrate).
	DestSocket int
	// DirtyPages is how many 2 MiB pages the guest dirties per pre-copy
	// round while migrating (EventMigrate).
	DirtyPages int
	// MaxMoves caps defragmentation moves (EventDefrag; default 4).
	MaxMoves int
}

// Window is the latency-attribution record of one churn event: the
// virtual-time interval the modeled copy occupied, the blackout within it,
// the mechanism probes that fired, and the latency histogram of every
// request served while the window was open.
type Window struct {
	// Label summarizes the event for reports.
	Label string
	// Kind echoes the event kind.
	Kind EventKind
	// StartNs and EndNs bound the modeled copy (EndNs = StartNs +
	// BytesCopied / copy bandwidth).
	StartNs, EndNs float64
	// BlackoutNs is the stop-and-copy (or pause-gated) portion at the
	// end of the window, during which the tenant starts no requests.
	BlackoutNs float64
	// BytesCopied and DowntimeBytes echo the mechanism's report.
	BytesCopied, DowntimeBytes uint64
	// Probes lists the lifecycle probe events that fired while the event
	// executed, e.g. "balloon.unmapped@t0".
	Probes []string
	// Err records a failed event (serving continues); empty on success.
	Err string
	// Hist holds the latency of requests served while the window was
	// open — the spike the event caused.
	Hist *stats.Histogram
}

// execute runs one churn event, records its window, and rebinds affected
// tenants. Event errors land in Window.Err; the serving loop never stops.
func (l *Loop) execute(ctx context.Context, ev Event) {
	w := &Window{
		Label:   fmt.Sprintf("%s %s@%.1fms", ev.Kind, ev.Tenant, ev.AtNs/1e6),
		Kind:    ev.Kind,
		StartNs: ev.AtNs,
		EndNs:   ev.AtNs,
		Hist:    stats.NewHistogram(),
	}
	l.windows = append(l.windows, w)
	l.setActiveWindow(w)
	defer l.setActiveWindow(nil)

	var err error
	switch ev.Kind {
	case EventMigrate:
		err = l.execMigrate(ctx, ev, w)
	case EventResize:
		err = l.execResize(ev, w)
	case EventDefrag:
		err = l.execDefrag(ctx, ev, w)
	default:
		err = fmt.Errorf("serve: unknown churn event kind %q", ev.Kind)
	}
	if err != nil {
		w.Err = err.Error()
	}
}

// tenantByName finds a tenant by VM name; nil when the VM is not a tenant
// (defragmentation may move bystander VMs).
func (l *Loop) tenantByName(name string) *tenant {
	for _, t := range l.tenants {
		if t.spec.VM == name {
			return t
		}
	}
	return nil
}

// applyWindow sizes the window from the mechanism's byte counts at the
// modeled copy bandwidth and imposes the blackout on the paused tenants.
func (l *Loop) applyWindow(w *Window, bytesCopied, downtimeBytes uint64, paused ...*tenant) {
	perByte := 1e9 / (copyGiBps * float64(geometry.GiB))
	copyNs := float64(bytesCopied) * perByte
	downNs := float64(downtimeBytes) * perByte
	w.EndNs = w.StartNs + copyNs
	w.BlackoutNs = downNs
	w.BytesCopied = bytesCopied
	w.DowntimeBytes = downtimeBytes
	for _, t := range paused {
		if t != nil && downNs > 0 {
			t.blackouts = append(t.blackouts, blackout{start: w.EndNs - downNs, end: w.EndNs})
		}
	}
}

// execMigrate live-migrates the tenant to DestSocket while its guest
// dirties DirtyPages pages per pre-copy round.
func (l *Loop) execMigrate(ctx context.Context, ev Event, w *Window) error {
	t := l.tenantByName(ev.Tenant)
	if t == nil {
		return fmt.Errorf("serve: no tenant %q", ev.Tenant)
	}
	dests, err := l.cfg.Hypervisor.FreeNodes(ev.DestSocket, t.vm.Spec().MemoryBytes)
	if err != nil {
		return err
	}
	pages := int(t.usable / geometry.PageSize2M)
	opt := core.MigrateOptions{MaxRounds: 16, StopPages: 8}
	if ev.DirtyPages > 0 && pages > 0 {
		vm, rng := t.vm, t.rng
		opt.GuestStep = func(round int) error {
			for i := 0; i < ev.DirtyPages; i++ {
				gpa := uint64(rng.Intn(pages)) * geometry.PageSize2M
				if err := vm.WriteGuest(gpa, []byte{byte(round + i), 1}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	rep, err := l.cfg.Hypervisor.MigrateVM(ctx, ev.Tenant, dests, opt)
	if err != nil {
		return err
	}
	l.applyWindow(w, rep.BytesCopied, rep.DowntimeBytes, t)
	t.socket = ev.DestSocket
	return t.bind(l)
}

// execResize balloons or hotplugs the tenant to TargetBytes. The pages the
// resize moves are unmapped/scrubbed under the VM's pause gate, so the whole
// modeled copy counts as blackout. A resize that returns a report took
// effect, so the tenant follows it even when an error comes with it.
func (l *Loop) execResize(ev Event, w *Window) error {
	t := l.tenantByName(ev.Tenant)
	if t == nil {
		return fmt.Errorf("serve: no tenant %q", ev.Tenant)
	}
	rep, err := l.cfg.Hypervisor.ResizeVM(ev.Tenant, ev.TargetBytes)
	if rep == nil {
		return err
	}
	moved := uint64(rep.Pages) * geometry.PageSize2M
	l.applyWindow(w, moved, moved, t)
	t.usable = rep.Target
	t.gen.Resize(t.usable)
	if berr := t.bind(l); berr != nil {
		return berr
	}
	return err
}

// execDefrag runs the defragmentation engine on the host.
// Every VM it moves that is also a serving tenant gets the blackout; the
// window aggregates all moves.
func (l *Loop) execDefrag(ctx context.Context, ev Event, w *Window) error {
	if l.tenantByName(ev.Tenant) == nil {
		return fmt.Errorf("serve: no tenant %q", ev.Tenant)
	}
	maxMoves := ev.MaxMoves
	if maxMoves <= 0 {
		maxMoves = 4
	}
	eng := migrate.NewEngine(l.cfg.Hypervisor)
	reps, err := eng.Defragment(ctx, maxMoves)
	var bytesCopied, downtime uint64
	var paused []*tenant
	moved := map[*tenant]bool{}
	for _, rep := range reps {
		bytesCopied += rep.BytesCopied
		downtime += rep.DowntimeBytes
		if mt := l.tenantByName(rep.VM); mt != nil {
			paused = append(paused, mt)
			moved[mt] = true
		}
	}
	l.applyWindow(w, bytesCopied, downtime, paused...)
	// Moved tenants may have landed on another socket; recompute from
	// their destination nodes and rebind.
	for _, rep := range reps {
		mt := l.tenantByName(rep.VM)
		if mt == nil || len(rep.DestNodes) == 0 {
			continue
		}
		ids := append([]int(nil), rep.DestNodes...)
		sort.Ints(ids)
		if n, nerr := l.cfg.Hypervisor.Topology().Node(ids[0]); nerr == nil {
			mt.socket = n.Socket
		}
	}
	for mt := range moved {
		if berr := mt.bind(l); berr != nil && err == nil {
			err = berr
		}
	}
	return err
}

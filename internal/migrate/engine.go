package migrate

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/numa"
)

// Engine executes migration plans through the hypervisor's pre-copy
// machinery, running the hypervisor's audit before, during (after every
// pre-copy round), and after each move.
type Engine struct {
	h *core.Hypervisor
	// Opt tunes every move's pre-copy loop (rounds, convergence, guest
	// stepping). The engine chains its per-round audit onto Opt.OnRound.
	Opt core.MigrateOptions
}

// NewEngine builds an engine over a booted hypervisor.
func NewEngine(h *core.Hypervisor) *Engine { return &Engine{h: h} }

// Execute runs a plan — in-place shrinks first, then moves in order —
// stopping at the first failure. The audit runs around every shrink and
// around and within every move; an audit failure aborts the plan even if the
// step itself succeeded.
func (e *Engine) Execute(ctx context.Context, plan *Plan) ([]*core.MigrateReport, error) {
	if err := AuditIsolation(e.h); err != nil {
		return nil, err
	}
	for _, s := range plan.Shrinks {
		if _, err := e.h.ResizeVM(s.VM, s.Target); err != nil {
			return nil, err
		}
		if err := AuditIsolation(e.h); err != nil {
			return nil, fmt.Errorf("migrate: audit failed after shrinking %q: %w", s.VM, err)
		}
	}
	var reps []*core.MigrateReport
	for _, mv := range plan.Moves {
		rep, err := e.move(ctx, mv)
		if rep != nil {
			reps = append(reps, rep)
		}
		if err != nil {
			return reps, err
		}
	}
	return reps, nil
}

// move runs one audited migration.
func (e *Engine) move(ctx context.Context, mv Move) (*core.MigrateReport, error) {
	opt := e.Opt
	userRound := opt.OnRound
	var auditErr error
	opt.OnRound = func(r core.MigrateRound) {
		if userRound != nil {
			userRound(r)
		}
		// Mid-flight the domain spans source and destination and the
		// destination frames are in flight: exclusivity must hold for the
		// widened domain, and conservation with those frames counted.
		if auditErr == nil {
			auditErr = AuditIsolation(e.h)
		}
	}
	rep, err := e.h.MigrateVM(ctx, mv.VM, mv.DestNodes, opt)
	if err != nil {
		return nil, err
	}
	if auditErr != nil {
		return rep, fmt.Errorf("migrate: audit failed during move of %q: %w", mv.VM, auditErr)
	}
	if err := AuditIsolation(e.h); err != nil {
		return rep, fmt.Errorf("migrate: audit failed after move of %q: %w", mv.VM, err)
	}
	return rep, nil
}

// AdmitWithRebalance admits a VM that plain CreateVM refuses for lack of
// home-socket capacity: plan a rebalance, execute it, retry. Returns the
// created VM and the migrations performed on its behalf.
func (e *Engine) AdmitWithRebalance(ctx context.Context, proc core.Process, spec core.VMSpec) (*core.VM, []*core.MigrateReport, error) {
	if vm, err := e.h.CreateVM(proc, spec); err == nil {
		return vm, nil, nil
	}
	plan, err := NewPlanner(e.h).PlanAdmission(spec)
	if err != nil {
		return nil, nil, err
	}
	reps, err := e.Execute(ctx, plan)
	if err != nil {
		return nil, reps, err
	}
	vm, err := e.h.CreateVM(proc, spec)
	if err != nil {
		return nil, reps, fmt.Errorf("migrate: VM %q still refused after rebalancing: %w", spec.Name, err)
	}
	return vm, reps, nil
}

// Defragment evens guest-node occupancy across sockets: while the most
// loaded socket holds at least two more owned guest nodes than the least
// loaded, it moves the smallest wholly-resident VM across. maxMoves <= 0
// means unlimited. Returns the migrations performed.
//
// Each cross-socket move also relocates the victim's EPT tables (see
// core.MigrateVM), so defragmentation drains the overloaded socket's
// guard-protected EPT block alongside its guest nodes.
func (e *Engine) Defragment(ctx context.Context, maxMoves int) ([]*core.MigrateReport, error) {
	if e.h.Mode() != core.ModeSiloz {
		return nil, fmt.Errorf("migrate: defragmentation applies to Siloz exclusive reservations")
	}
	planner := NewPlanner(e.h)
	sockets := e.h.Memory().Geometry().Sockets
	var reps []*core.MigrateReport
	owned := make([]int, sockets)
	free := make([][]NodeOccupancy, sockets)
	for len(reps) < maxMoves || maxMoves <= 0 {
		occ, err := planner.Occupancy()
		if err != nil {
			return reps, err
		}
		clear(owned)
		for s := range free {
			free[s] = free[s][:0]
		}
		for _, o := range occ {
			if o.Owner != "" {
				owned[o.Node.Socket]++
			} else {
				free[o.Node.Socket] = append(free[o.Node.Socket], o)
			}
		}
		maxS, minS := 0, 0
		for s := 1; s < sockets; s++ {
			if owned[s] > owned[maxS] {
				maxS = s
			}
			if owned[s] < owned[minS] {
				minS = s
			}
		}
		if owned[maxS]-owned[minS] < 2 {
			break // balanced enough: one more move cannot improve the spread
		}
		mv, ok := e.pickDefragMove(maxS, free[minS])
		if !ok {
			break // nothing movable fits
		}
		rep, err := e.move(ctx, mv)
		if rep != nil {
			reps = append(reps, rep)
		}
		if err != nil {
			return reps, err
		}
	}
	return reps, nil
}

// pickDefragMove selects the smallest VM wholly resident on the overloaded
// socket that fits in the underloaded socket's free nodes.
func (e *Engine) pickDefragMove(fromSocket int, destPool []NodeOccupancy) (Move, bool) {
	var best *core.VM
	var bestBytes uint64
	for _, vm := range e.h.VMs() {
		resident := len(vm.Nodes()) > 0
		for _, n := range vm.Nodes() {
			if n.Socket != fromSocket || n.Kind != numa.GuestReserved {
				resident = false
				break
			}
		}
		if !resident {
			continue
		}
		b := GuestBytes(vm.Spec())
		if best == nil || b < bestBytes {
			best, bestBytes = vm, b
		}
	}
	if best == nil {
		return Move{}, false
	}
	var dests []int
	var destCap uint64
	for _, o := range destPool {
		if destCap >= bestBytes {
			break
		}
		dests = append(dests, o.Node.ID)
		destCap += hugePageCap(o)
	}
	if destCap < bestBytes {
		return Move{}, false
	}
	return Move{VM: best.Name(), DestNodes: dests}, true
}

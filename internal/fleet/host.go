package fleet

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/migrate"
)

// Op is one queued lifecycle operation on a host. A host's ops run one at a
// time, in submission order. The queue orders; it excludes nothing:
// experiments and tests call a host's hypervisor directly, and what keeps two
// layout operations off one VM — for them and for queued ops alike — is
// core's lifecycle latch.
type Op struct {
	h  *Host
	fn func() error

	err  error
	done bool // guarded by h.mu
}

// Wait runs the host's queued ops on the calling goroutine until this one
// has completed, and returns its error. On the way it runs the ops submitted
// before it, or sleeps while another goroutine runs them. A canceled ctx ends
// the wait: the op stays queued and runs under the next Wait, Quiesce or
// Close on its host; an op already running finishes.
func (o *Op) Wait(ctx context.Context) error {
	if err := o.h.drive(ctx, func() bool { return o.done }); err != nil {
		return err
	}
	return o.err
}

// Err returns the op's error; valid only after Wait returned nil or the op's
// own error.
func (o *Op) Err() error { return o.err }

// Host is one simulated machine: a booted hypervisor (its own
// numa.Registry, allocators, and DRAM — state is sharded per host, nothing
// is global), a migrate planner/engine over it, and a queue of lifecycle
// operations run by the goroutines that wait on them. A host starts no
// goroutine.
//
// Serialization contract: one op runs at a time, and ops run in submission
// order, so execution on a host is totally ordered.
type Host struct {
	name    string
	hv      *core.Hypervisor
	planner *migrate.Planner
	engine  *migrate.Engine

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []*Op // queued ops in submission order
	busy     bool  // an op is running
	sleepers int   // goroutines asleep on cond
	closed   bool
}

// NewHost boots a hypervisor with an empty queue.
func NewHost(name string, cfg core.Config, mode core.Mode) (*Host, error) {
	hv, err := core.Boot(cfg, mode)
	if err != nil {
		return nil, fmt.Errorf("fleet: boot host %q: %w", name, err)
	}
	h := &Host{
		name:    name,
		hv:      hv,
		planner: migrate.NewPlanner(hv),
		engine:  migrate.NewEngine(hv),
	}
	h.cond = sync.NewCond(&h.mu)
	return h, nil
}

// Name returns the host's fleet-wide name.
func (h *Host) Name() string { return h.name }

// Hypervisor returns the host's hypervisor shard.
func (h *Host) Hypervisor() *core.Hypervisor { return h.hv }

// Planner returns the host's occupancy planner.
func (h *Host) Planner() *migrate.Planner { return h.planner }

// Submit enqueues an operation and returns immediately; nothing runs it
// until a Wait, Quiesce or Close on the host drives the queue. A closed host
// refuses it with ErrClosed.
func (h *Host) Submit(fn func() error) (*Op, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("fleet: host %q: %w", h.name, ErrClosed)
	}
	op := &Op{h: h, fn: fn}
	h.pending = append(h.pending, op)
	return op, nil
}

// SubmitCreate enqueues a VM creation.
func (h *Host) SubmitCreate(proc core.Process, spec core.VMSpec) (*Op, error) {
	return h.Submit(func() error {
		_, err := h.hv.CreateVM(proc, spec)
		return err
	})
}

// SubmitDestroy enqueues a VM teardown (scrub + release).
func (h *Host) SubmitDestroy(name string) (*Op, error) {
	return h.Submit(func() error {
		return h.hv.DestroyVM(name)
	})
}

// SubmitResize enqueues a resize to targetBytes of usable RAM.
func (h *Host) SubmitResize(name string, targetBytes uint64) (*Op, error) {
	return h.Submit(func() error {
		_, err := h.hv.ResizeVM(name, targetBytes)
		return err
	})
}

// SubmitDefragment enqueues a host-wide defragmentation pass through the
// migrate engine (bounded at maxMoves). onDone, if non-nil, receives the
// reports before the op completes.
func (h *Host) SubmitDefragment(ctx context.Context, maxMoves int, onDone func([]*core.MigrateReport)) (*Op, error) {
	return h.Submit(func() error {
		reps, err := h.engine.Defragment(ctx, maxMoves)
		if onDone != nil {
			onDone(reps)
		}
		return err
	})
}

// drive runs queued ops on the calling goroutine until until — evaluated
// under h.mu — holds or ctx is canceled. When no op is running it claims the
// head of the queue and runs it with the lock released; otherwise it sleeps
// until an op finishes elsewhere or ctx is canceled.
func (h *Host) drive(ctx context.Context, until func() bool) (err error) {
	var stop func() bool
	h.mu.Lock()
	for !until() {
		if err = ctx.Err(); err != nil {
			break
		}
		if op := h.claimLocked(); op != nil {
			h.mu.Unlock()
			opErr := op.fn()
			h.mu.Lock()
			op.err, op.done, h.busy = opErr, true, false
			if h.sleepers > 0 {
				h.cond.Broadcast()
			}
			continue
		}
		if stop == nil {
			stop = context.AfterFunc(ctx, func() {
				h.mu.Lock()
				h.cond.Broadcast()
				h.mu.Unlock()
			})
		}
		h.sleepers++
		h.cond.Wait()
		h.sleepers--
	}
	h.mu.Unlock()
	if stop != nil {
		stop()
	}
	return err
}

// claimLocked removes and returns the head of the queue and marks the host
// busy, or returns nil when an op is running or nothing is queued. Caller
// holds h.mu.
func (h *Host) claimLocked() *Op {
	if h.busy || len(h.pending) == 0 {
		return nil
	}
	op := h.pending[0]
	h.pending = slices.Delete(h.pending, 0, 1)
	h.busy = true
	return op
}

// idle reports whether no op is queued or running. Caller holds h.mu.
func (h *Host) idle() bool { return len(h.pending) == 0 && !h.busy }

// Quiesce runs every submitted op to completion on the calling goroutine
// (sharing the work with any other goroutine driving the host), or returns
// ctx's error once it is canceled. The experiment driver calls it between
// churn phases so placement views are never stale when decisions are made.
func (h *Host) Quiesce(ctx context.Context) error {
	return h.drive(ctx, h.idle)
}

// Close refuses further submits (they fail with ErrClosed), runs whatever
// is still queued, and shuts the hypervisor down.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.mu.Unlock()
	_ = h.drive(context.Background(), h.idle)
	h.hv.Shutdown()
}

package fleet

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/migrate"
)

// Op is one queued lifecycle operation on a host. Ops on the same VM run
// strictly in submission order, one at a time; ops on different VMs may
// interleave when the host runs more than one worker. The queue orders and
// dispatches; it excludes nothing: internal/serve, experiments and tests call
// a host's hypervisor directly, and what keeps two layout operations off one
// VM — for them and for queued ops alike — is core's lifecycle latch.
type Op struct {
	seq  uint64
	key  string // VM name (or a reserved key for host-wide work)
	kind string // "create", "destroy", "resize", "move", "defrag"
	fn   func() error

	err  error
	done chan struct{}
}

// Kind returns the operation's kind label.
func (o *Op) Kind() string { return o.kind }

// Wait blocks until the op completes (returning its error) or the context
// is canceled. The op still runs to completion after a canceled Wait —
// cancellation abandons the wait, not the work.
func (o *Op) Wait(ctx context.Context) error {
	select {
	case <-o.done:
		return o.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Err returns the op's error; valid only after done (Wait returned nil or
// the op's own error).
func (o *Op) Err() error { return o.err }

// defragKey serializes host-wide defragmentation against itself. The NUL
// prefix cannot collide with a VM name.
const defragKey = "\x00defrag"

// Host is one simulated machine: a booted hypervisor (its own
// numa.Registry, allocators, and DRAM — state is sharded per host, nothing
// is global), a migrate planner/engine over it, and an event loop of per-VM
// operation queues.
//
// Serialization contract: the loop dispatches at most one op per key at a
// time, in per-key FIFO order; across keys it always picks the runnable op
// with the lowest global sequence number. With Workers=1 (the default)
// execution is therefore totally ordered by submission — the configuration
// every deterministic experiment uses — while Workers>1 keeps only the
// per-VM ordering guarantee, which is what the race tests exercise.
type Host struct {
	name    string
	hv      *core.Hypervisor
	planner *migrate.Planner
	engine  *migrate.Engine

	mu       sync.Mutex
	cond     *sync.Cond
	queues   map[string][]*Op // per-key FIFO, head is next to run
	running  map[string]bool  // keys with an op currently executing
	nextSeq  uint64
	inflight int // queued + executing ops
	draining bool
	closed   bool
	wg       sync.WaitGroup
}

// NewHost boots a hypervisor and starts its event loop with the given
// worker count; <= 0 means 1 (serial, deterministic dispatch).
func NewHost(name string, cfg core.Config, mode core.Mode, workers int) (*Host, error) {
	hv, err := core.Boot(cfg, mode)
	if err != nil {
		return nil, fmt.Errorf("fleet: boot host %q: %w", name, err)
	}
	h := &Host{
		name:    name,
		hv:      hv,
		planner: migrate.NewPlanner(hv),
		engine:  migrate.NewEngine(hv),
		queues:  make(map[string][]*Op),
		running: make(map[string]bool),
	}
	h.cond = sync.NewCond(&h.mu)
	if workers <= 0 {
		workers = 1
	}
	h.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go h.worker()
	}
	return h, nil
}

// Name returns the host's fleet-wide name.
func (h *Host) Name() string { return h.name }

// Hypervisor returns the host's hypervisor shard.
func (h *Host) Hypervisor() *core.Hypervisor { return h.hv }

// Planner returns the host's occupancy planner.
func (h *Host) Planner() *migrate.Planner { return h.planner }

// Engine returns the host's audited migration engine.
func (h *Host) Engine() *migrate.Engine { return h.engine }

// SetDraining marks the host as draining (or not): a draining host accepts
// no create ops; destroys, resizes, and outbound moves still run so the
// drain can complete.
func (h *Host) SetDraining(v bool) {
	h.mu.Lock()
	h.draining = v
	h.mu.Unlock()
}

// Draining reports whether the host is draining.
func (h *Host) Draining() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.draining
}

// Submit enqueues an operation on the given key's queue and returns
// immediately. Create ops are rejected while the host drains.
func (h *Host) Submit(key, kind string, fn func() error) (*Op, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("fleet: host %q: %w", h.name, ErrClosed)
	}
	if h.draining && kind == "create" {
		return nil, fmt.Errorf("fleet: host %q: %w", h.name, ErrHostDraining)
	}
	op := &Op{seq: h.nextSeq, key: key, kind: kind, fn: fn, done: make(chan struct{})}
	h.nextSeq++
	h.queues[key] = append(h.queues[key], op)
	h.inflight++
	h.cond.Broadcast()
	return op, nil
}

// SubmitCreate enqueues a VM creation.
func (h *Host) SubmitCreate(proc core.Process, spec core.VMSpec) (*Op, error) {
	return h.Submit(spec.Name, "create", func() error {
		_, err := h.hv.CreateVM(proc, spec)
		return err
	})
}

// SubmitDestroy enqueues a VM teardown (scrub + release).
func (h *Host) SubmitDestroy(name string) (*Op, error) {
	return h.Submit(name, "destroy", func() error {
		return h.hv.DestroyVM(name)
	})
}

// SubmitResize enqueues a resize to targetBytes of usable RAM.
func (h *Host) SubmitResize(name string, targetBytes uint64) (*Op, error) {
	return h.Submit(name, "resize", func() error {
		_, err := h.hv.ResizeVM(name, targetBytes)
		return err
	})
}

// SubmitDefragment enqueues a host-wide defragmentation pass through the
// migrate engine (bounded at maxMoves). onDone, if non-nil, receives the
// reports before the op completes.
func (h *Host) SubmitDefragment(ctx context.Context, maxMoves int, onDone func([]*core.MigrateReport)) (*Op, error) {
	return h.Submit(defragKey, "defrag", func() error {
		reps, err := h.engine.Defragment(ctx, maxMoves)
		if onDone != nil {
			onDone(reps)
		}
		return err
	})
}

// worker is one event-loop goroutine: pick the runnable op with the lowest
// sequence number, run it outside the lock, repeat.
func (h *Host) worker() {
	defer h.wg.Done()
	for {
		h.mu.Lock()
		var op *Op
		for {
			op = h.nextLocked()
			if op != nil {
				break
			}
			if h.closed {
				h.mu.Unlock()
				return
			}
			h.cond.Wait()
		}
		// Pop the head of its queue and mark the key busy.
		q := h.queues[op.key][1:]
		if len(q) == 0 {
			delete(h.queues, op.key)
		} else {
			h.queues[op.key] = q
		}
		h.running[op.key] = true
		h.mu.Unlock()

		op.err = op.fn()

		h.mu.Lock()
		delete(h.running, op.key)
		h.inflight--
		h.cond.Broadcast()
		h.mu.Unlock()
		close(op.done)
	}
}

// nextLocked returns the lowest-sequence head op of any non-busy queue, or
// nil. Caller holds h.mu.
func (h *Host) nextLocked() *Op {
	var best *Op
	for key, q := range h.queues {
		if h.running[key] {
			continue
		}
		if head := q[0]; best == nil || head.seq < best.seq {
			best = head
		}
	}
	return best
}

// Quiesce blocks until every submitted op has completed (or ctx cancels).
// The experiment driver calls it between churn phases so placement views
// are never stale when decisions are made.
func (h *Host) Quiesce(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	defer stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.inflight > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		h.cond.Wait()
	}
	return nil
}

// Close drains the queues, stops the workers, and shuts the hypervisor
// down. Submits after Close fail with ErrClosed.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
	h.wg.Wait()
	h.hv.Shutdown()
}

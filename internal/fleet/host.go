package fleet

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/migrate"
)

// Op is the outcome of one lifecycle operation on a host. The operation has
// finished by the time Submit returns it.
type Op struct {
	err error
}

// Wait returns the op's error. ctx is unused: the op ran inside Submit. Op
// and Wait stay only because benchmark/ calls them, until ROADMAP item 11.
func (o *Op) Wait(ctx context.Context) error { return o.err }

// Host is one simulated machine: a booted hypervisor (its own
// numa.Registry, allocators, and DRAM — state is sharded per host, nothing
// is global), a migrate planner/engine over it, and the lock its lifecycle
// operations run under. A host starts no goroutine.
//
// Serialization contract: an op runs on the goroutine that submits it, under
// the host's lock, so one op runs at a time and execution on a host is
// totally ordered, in call order. Experiments and tests also call a host's
// hypervisor directly, past the lock; what keeps two layout operations off
// one VM — for them and for ops alike — is core's lifecycle latch.
type Host struct {
	name    string
	hv      *core.Hypervisor
	planner *migrate.Planner
	engine  *migrate.Engine

	mu     sync.Mutex // held across each op
	closed bool
}

// NewHost boots a hypervisor.
func NewHost(name string, cfg core.Config, mode core.Mode) (*Host, error) {
	hv, err := core.Boot(cfg, mode)
	if err != nil {
		return nil, fmt.Errorf("fleet: boot host %q: %w", name, err)
	}
	return &Host{
		name:    name,
		hv:      hv,
		planner: migrate.NewPlanner(hv),
		engine:  migrate.NewEngine(hv),
	}, nil
}

// Name returns the host's fleet-wide name.
func (h *Host) Name() string { return h.name }

// Hypervisor returns the host's hypervisor shard.
func (h *Host) Hypervisor() *core.Hypervisor { return h.hv }

// Planner returns the host's occupancy planner.
func (h *Host) Planner() *migrate.Planner { return h.planner }

// Submit runs an operation on the calling goroutine under the host's lock,
// after any op already running there, and returns its outcome. A closed
// host refuses it with ErrClosed. The lock is held across fn, so fn — and a
// lifecycle probe it fires — must not submit to this host.
func (h *Host) Submit(fn func() error) (*Op, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("fleet: host %q: %w", h.name, ErrClosed)
	}
	return &Op{err: fn()}, nil
}

// done returns a submission's refusal or, failing that, its op's error:
// err := done(h.SubmitCreate(proc, spec)).
func done(op *Op, err error) error {
	if err != nil {
		return err
	}
	return op.err
}

// SubmitCreate runs a VM creation.
func (h *Host) SubmitCreate(proc core.Process, spec core.VMSpec) (*Op, error) {
	return h.Submit(func() error {
		_, err := h.hv.CreateVM(proc, spec)
		return err
	})
}

// SubmitDestroy runs a VM teardown (scrub + release).
func (h *Host) SubmitDestroy(name string) (*Op, error) {
	return h.Submit(func() error {
		return h.hv.DestroyVM(name)
	})
}

// SubmitResize runs a resize to targetBytes of usable RAM.
func (h *Host) SubmitResize(name string, targetBytes uint64) (*Op, error) {
	return h.Submit(func() error {
		_, err := h.hv.ResizeVM(name, targetBytes)
		return err
	})
}

// Close refuses further submits (they fail with ErrClosed), once any op
// running has finished, and shuts the hypervisor down.
func (h *Host) Close() {
	h.mu.Lock()
	closed := h.closed
	h.closed = true
	h.mu.Unlock()
	if !closed {
		h.hv.Shutdown()
	}
}

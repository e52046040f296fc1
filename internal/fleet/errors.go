// Package fleet is the control plane above the single-host hypervisor: a
// multi-host simulator where VMs arrive, resize, and depart under traced
// churn. Each simulated host shards its own numa.Registry and hypervisor
// state behind a Host handle whose operation queue, run by the goroutines
// that wait on it, orders and dispatches lifecycle operations per VM —
// exclusion stays with core's per-VM lifecycle latch, which a queued op
// takes like any other caller; an admission/placement service bin-packs subarray-group nodes across sockets
// and hosts behind a Policy interface; and a Scheduler drains hot hosts and
// defragments cold ones through the existing migrate.Planner/Engine.
package fleet

import "errors"

// Sentinel errors, matched with errors.Is (the core.ErrResizeBusy
// convention): callers branch on the failure class, wrappers add context.
var (
	// ErrNoPlacement means no isolation-respecting placement exists for a
	// request: no socket on any admissible host has enough unowned
	// subarray-group capacity. The fleet's typed admission rejection.
	ErrNoPlacement = errors.New("fleet: no isolation-respecting placement")
	// ErrUnknownHost names a host the cluster does not manage.
	ErrUnknownHost = errors.New("fleet: unknown host")
	// ErrUnknownVM names a VM the cluster has no placement record for.
	ErrUnknownVM = errors.New("fleet: unknown vm")
	// ErrVMMigrating rejects cluster operations on a VM while a cross-host
	// move is in flight (its domain momentarily spans two hosts); straight on
	// the source hypervisor the latch refuses them, with core.ErrResizeBusy.
	ErrVMMigrating = errors.New("fleet: vm is migrating between hosts")
	// ErrClosed rejects operations on a closed host or cluster.
	ErrClosed = errors.New("fleet: closed")
)

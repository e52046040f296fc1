package fleet

import (
	"fmt"
	"sort"

	"repro/internal/geometry"
)

// Request is one placement problem: a VM needing GuestBytes of
// subarray-group-backed RAM somewhere in the fleet.
type Request struct {
	// Name identifies the VM (for error context only).
	Name string
	// GuestBytes is the capacity demanded from guest-reserved nodes
	// (migrate.GuestBytes of the spec).
	GuestBytes uint64
	// ExcludeHosts are hosts the placement must avoid (the source of an
	// eviction, hot hosts during a rebalance).
	ExcludeHosts map[string]bool
}

// NodeView is one guest-reserved node as the placement service sees it.
type NodeView struct {
	ID    int
	Owned bool
	// FreeBytes is the node's huge-page capacity — what a guest
	// reservation can actually consume (free 2 MiB pages × 2 MiB).
	FreeBytes uint64
	// TotalBytes is the node's full size.
	TotalBytes uint64
}

// SocketView is one socket's guest-reserved nodes, in node-ID order.
type SocketView struct {
	Socket int
	Nodes  []NodeView
}

// FreeBytes is the socket's unowned huge-page capacity — what a new
// reservation can draw on (owned nodes are exclusive to their VM).
func (s SocketView) FreeBytes() uint64 {
	var b uint64
	for _, n := range s.Nodes {
		if !n.Owned {
			b += n.FreeBytes
		}
	}
	return b
}

// HostView is one host's placement state, sockets in socket order.
type HostView struct {
	Host    string
	Sockets []SocketView
}

// Policy places requests onto (host, socket) pairs given the fleet view.
// Implementations must be deterministic: the same request against the same
// views yields the same placement.
type Policy interface {
	// Name is the policy's registry key.
	Name() string
	// Place returns a placement or an error wrapping ErrNoPlacement.
	Place(req Request, views []HostView) (Placement, error)
}

// Placement is a policy's decision.
type Placement struct {
	Host   string
	Socket int
}

// noPlacement builds the typed rejection.
func noPlacement(req Request, policy string) error {
	return fmt.Errorf("%s: %q (%d MiB): %w",
		policy, req.Name, req.GuestBytes/geometry.MiB, ErrNoPlacement)
}

// FirstFit places on the first admissible (host, socket) with enough
// unowned capacity, in view order — the cheapest policy and the most
// fragmenting one.
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "first-fit" }

// Place implements Policy.
func (FirstFit) Place(req Request, views []HostView) (Placement, error) {
	for _, hv := range views {
		if req.ExcludeHosts[hv.Host] {
			continue
		}
		for _, sv := range hv.Sockets {
			if sv.FreeBytes() >= req.GuestBytes {
				return Placement{Host: hv.Host, Socket: sv.Socket}, nil
			}
		}
	}
	return Placement{}, noPlacement(req, "first-fit")
}

// BestFit places on the admissible socket whose unowned capacity exceeds
// the request by the least — classic tightest-fit bin packing, keeping
// large contiguous capacity available for large VMs.
type BestFit struct{}

// Name implements Policy.
func (BestFit) Name() string { return "best-fit" }

// Place implements Policy.
func (BestFit) Place(req Request, views []HostView) (Placement, error) {
	best := Placement{}
	var bestSlack uint64
	found := false
	for _, hv := range views {
		if req.ExcludeHosts[hv.Host] {
			continue
		}
		for _, sv := range hv.Sockets {
			free := sv.FreeBytes()
			if free < req.GuestBytes {
				continue
			}
			slack := free - req.GuestBytes
			if !found || slack < bestSlack {
				best = Placement{Host: hv.Host, Socket: sv.Socket}
				bestSlack = slack
				found = true
			}
		}
	}
	if !found {
		return Placement{}, noPlacement(req, "best-fit")
	}
	return best, nil
}

// SilozAware places where the reservation strands the least capacity.
// Reservations take whole subarray-group nodes (exclusive ownership is the
// isolation invariant), so a 65 MiB VM on 64 MiB nodes owns two nodes and
// strands 63 MiB inside the second. The policy simulates the hypervisor's
// greedy node-ID-order reservation on every candidate socket and picks the
// (host, socket) minimizing stranded bytes; ties break toward the fuller
// socket (consolidation — empty sockets stay whole for large VMs), then
// view order.
type SilozAware struct{}

// Name implements Policy.
func (SilozAware) Name() string { return "siloz-aware" }

// Place implements Policy.
func (SilozAware) Place(req Request, views []HostView) (Placement, error) {
	best := Placement{}
	var bestStranded, bestFree uint64
	found := false
	for _, hv := range views {
		if req.ExcludeHosts[hv.Host] {
			continue
		}
		for _, sv := range hv.Sockets {
			stranded, ok := strandedAfter(sv, req.GuestBytes)
			if !ok {
				continue
			}
			free := sv.FreeBytes()
			if !found || stranded < bestStranded ||
				(stranded == bestStranded && free < bestFree) {
				best = Placement{Host: hv.Host, Socket: sv.Socket}
				bestStranded, bestFree = stranded, free
				found = true
			}
		}
	}
	if !found {
		return Placement{}, noPlacement(req, "siloz-aware")
	}
	return best, nil
}

// strandedAfter simulates the hypervisor's reservation — unowned nodes in
// node-ID order until capacity covers need — and returns the bytes the last
// node strands. ok is false when the socket cannot hold the request.
func strandedAfter(sv SocketView, need uint64) (stranded uint64, ok bool) {
	var got uint64
	for _, n := range sv.Nodes {
		if n.Owned {
			continue
		}
		got += n.FreeBytes
		if got >= need {
			return got - need, true
		}
	}
	return 0, false
}

// Consume marks the placement's reservation on the views (greedy node-ID
// order, mirroring the hypervisor), so a batch of decisions can be planned
// against a single snapshot without each one seeing the previous one's
// capacity twice.
func Consume(views []HostView, p Placement, need uint64) {
	for hi := range views {
		if views[hi].Host != p.Host {
			continue
		}
		for si := range views[hi].Sockets {
			sv := &views[hi].Sockets[si]
			if sv.Socket != p.Socket {
				continue
			}
			var got uint64
			for ni := range sv.Nodes {
				n := &sv.Nodes[ni]
				if n.Owned || got >= need {
					continue
				}
				got += n.FreeBytes
				n.Owned = true
				n.FreeBytes = 0
			}
			return
		}
	}
}

// Policies returns every built-in policy, in canonical order.
func Policies() []Policy {
	return []Policy{FirstFit{}, BestFit{}, SilozAware{}}
}

// PolicyByName resolves a policy by its registry key.
func PolicyByName(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.Name() == name {
			return p, nil
		}
	}
	names := make([]string, 0, len(Policies()))
	for _, p := range Policies() {
		names = append(names, p.Name())
	}
	sort.Strings(names)
	return nil, fmt.Errorf("fleet: unknown policy %q (have %v)", name, names)
}

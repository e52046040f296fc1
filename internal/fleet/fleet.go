package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/migrate"
)

// Config parameterizes a cluster.
type Config struct {
	// Hosts is the number of simulated machines.
	Hosts int
	// Core is the per-host boot configuration. Every host boots the same
	// box; the first host's computed subarray layout is cached and reused
	// for the rest, so an N-host cluster pays one grouping pass.
	Core core.Config
	// Policy is the placement policy; nil means SilozAware.
	Policy Policy
	// Workers is how many of a host's ops may run at once. A host runs one
	// op at a time, so only 0 and 1 are accepted; New refuses more. Kept
	// only because benchmark/ sets it, until ROADMAP item 11 retires it.
	Workers int
	// CopyGiBps is not read: callers convert downtime bytes with
	// Stats.DowntimeMs at their own bandwidth. Kept only because benchmark/
	// sets it, until ROADMAP item 11 retires it.
	CopyGiBps float64
}

// admitRetries bounds re-placement attempts when a host rejects an
// admission the stale fleet view predicted would fit.
const admitRetries = 3

// Stats is a snapshot of the cluster's lifetime counters.
type Stats struct {
	Admitted    uint64
	Rejected    uint64
	Departed    uint64
	Resized     uint64
	CrossMoves  uint64 // completed cross-host migrations
	DefragMoves uint64 // completed intra-host defrag migrations
	// MigratedBytes counts pre-copy bytes over both kinds of move;
	// DowntimeBytes counts only bytes copied while the guest was paused.
	MigratedBytes uint64
	DowntimeBytes uint64
}

// DowntimeMs converts the paused-copy byte count into modeled milliseconds
// at the given bandwidth.
func (s Stats) DowntimeMs(copyGiBps float64) float64 {
	if copyGiBps <= 0 {
		return 0
	}
	return float64(s.DowntimeBytes) / (copyGiBps * float64(geometry.GiB)) * 1e3
}

// Cluster is the fleet control plane: per-host hypervisor shards behind
// Host handles, a placement policy, and the VM→host routing table.
type Cluster struct {
	cfg    Config
	hosts  []*Host
	byName map[string]*Host
	policy Policy

	mu     sync.Mutex
	vmHost map[string]string       // routing table
	procs  map[string]core.Process // creating process, kept for re-creation on move
	moving map[string]moveWindow   // vm -> open cross-host move window
	stats  Stats
	closed bool
}

// moveWindow records the two hosts a mid-move VM may legitimately span: the
// source (whose copy exists until the move's own teardown) and the
// destination (whose twin exists from the moment it boots). The audit uses
// it to bound double-ownership to exactly this pair — a mid-move VM
// observed anywhere else is a containment failure, not a transient.
type moveWindow struct {
	Src string
	Dst string
}

// New boots cfg.Hosts identical hosts. Only Siloz mode is supported:
// placement reasons about guest-reserved subarray-group nodes, which the
// baseline does not carve.
func New(cfg Config) (*Cluster, error) {
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("fleet: need at least 1 host, got %d", cfg.Hosts)
	}
	if cfg.Policy == nil {
		cfg.Policy = SilozAware{}
	}
	if cfg.Workers > 1 {
		return nil, fmt.Errorf("fleet: a host runs one op at a time, got Workers %d", cfg.Workers)
	}
	c := &Cluster{
		cfg:    cfg,
		byName: make(map[string]*Host),
		policy: cfg.Policy,
		vmHost: make(map[string]string),
		procs:  make(map[string]core.Process),
		moving: make(map[string]moveWindow),
	}
	var layout bytes.Buffer
	for i := 0; i < cfg.Hosts; i++ {
		hcfg := cfg.Core
		if layout.Len() > 0 {
			hcfg.CachedLayout = bytes.NewReader(layout.Bytes())
		}
		h, err := NewHost(fmt.Sprintf("host-%d", i), hcfg, core.ModeSiloz)
		if err != nil {
			c.Close()
			return nil, err
		}
		if i == 0 {
			if l := h.Hypervisor().Layout(); l != nil {
				if err := l.Save(&layout); err != nil {
					layout.Reset()
				}
			}
		}
		c.hosts = append(c.hosts, h)
		c.byName[h.Name()] = h
	}
	return c, nil
}

// Hosts returns the cluster's hosts in boot order.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Host resolves a host by name.
func (c *Cluster) Host(name string) (*Host, error) {
	h, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrUnknownHost)
	}
	return h, nil
}

// Policy returns the cluster's placement policy.
func (c *Cluster) Policy() Policy { return c.policy }

// Stats returns a snapshot of the lifetime counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// HostOf returns the host currently running the VM.
func (c *Cluster) HostOf(name string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.vmHost[name]
	if !ok {
		return "", fmt.Errorf("%q: %w", name, ErrUnknownVM)
	}
	return h, nil
}

// VMs returns the routing table's VM names, sorted.
func (c *Cluster) VMs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.vmHost))
	for name := range c.vmHost {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Views snapshots every host's guest-node occupancy for placement, hosts in
// boot order, sockets and nodes in ID order. Concurrent lifecycle ops make
// a view stale, never torn; admission handles staleness by retrying.
func (c *Cluster) Views() ([]HostView, error) {
	out := make([]HostView, 0, len(c.hosts))
	for _, h := range c.hosts {
		occ, err := h.Planner().Occupancy()
		if err != nil {
			return nil, fmt.Errorf("fleet: occupancy of %q: %w", h.Name(), err)
		}
		// occ is in node-ID order, so each socket's nodes come out in ID
		// order too; a socket with no guest node gets no view.
		sockets := h.Hypervisor().Memory().Geometry().Sockets
		hv := HostView{Host: h.Name(), Sockets: make([]SocketView, 0, sockets)}
		for s := range sockets {
			n := 0
			for _, o := range occ {
				if o.Node.Socket == s {
					n++
				}
			}
			if n == 0 {
				continue
			}
			sv := SocketView{Socket: s, Nodes: make([]NodeView, 0, n)}
			for _, o := range occ {
				if o.Node.Socket == s {
					sv.Nodes = append(sv.Nodes, NodeView{
						ID:         o.Node.ID,
						Owned:      o.Owner != "",
						FreeBytes:  uint64(o.FreePages2M) * geometry.PageSize2M,
						TotalBytes: o.TotalBytes,
					})
				}
			}
			hv.Sockets = append(hv.Sockets, sv)
		}
		out = append(out, hv)
	}
	return out, nil
}

// Admit places and creates a VM, synchronously: the placement decision and
// the creation op both complete before it returns. On a capacity race (the
// view went stale between Place and the create op) it excludes nothing and
// simply re-places against a fresh view, bounded by admitRetries. A
// placement failure returns an error wrapping ErrNoPlacement; the caller
// distinguishes rejection (errors.Is) from infrastructure failure. A ctx
// canceled before a create op is submitted creates nothing.
func (c *Cluster) Admit(ctx context.Context, proc core.Process, spec core.VMSpec) (string, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", ErrClosed
	}
	if _, dup := c.vmHost[spec.Name]; dup {
		c.mu.Unlock()
		return "", fmt.Errorf("fleet: admit %q: name already placed", spec.Name)
	}
	c.mu.Unlock()

	req := Request{Name: spec.Name, GuestBytes: migrate.GuestBytes(spec)}
	var lastErr error
	for attempt := 0; attempt < admitRetries; attempt++ {
		views, err := c.Views()
		if err != nil {
			return "", err
		}
		p, err := c.policy.Place(req, views)
		if err != nil {
			c.mu.Lock()
			c.stats.Rejected++
			c.mu.Unlock()
			return "", fmt.Errorf("fleet: admit: %w", err)
		}
		s := spec
		s.Socket = p.Socket
		if err = ctx.Err(); err == nil {
			err = done(c.byName[p.Host].SubmitCreate(proc, s))
		}
		if err != nil {
			if errors.Is(err, core.ErrCapacityExhausted) {
				lastErr = err // stale view; re-place
				continue
			}
			return "", fmt.Errorf("fleet: admit %q on %s: %w", spec.Name, p.Host, err)
		}
		c.mu.Lock()
		c.vmHost[spec.Name] = p.Host
		c.procs[spec.Name] = proc
		c.stats.Admitted++
		c.mu.Unlock()
		return p.Host, nil
	}
	c.mu.Lock()
	c.stats.Rejected++
	c.mu.Unlock()
	return "", fmt.Errorf("fleet: admit %q after %d attempts (%v): %w",
		spec.Name, admitRetries, lastErr, ErrNoPlacement)
}

// SubmitDepart runs a VM's teardown on its host and returns the op; the
// routing table entry goes with the VM, inside the op.
func (c *Cluster) SubmitDepart(name string) (*Op, error) {
	c.mu.Lock()
	hostName, ok := c.vmHost[name]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("depart %q: %w", name, ErrUnknownVM)
	}
	if _, inFlight := c.moving[name]; inFlight {
		c.mu.Unlock()
		return nil, fmt.Errorf("depart %q: %w", name, ErrVMMigrating)
	}
	c.mu.Unlock()
	h := c.byName[hostName]
	return h.Submit(func() error {
		if err := h.Hypervisor().DestroyVM(name); err != nil {
			return err
		}
		c.mu.Lock()
		delete(c.vmHost, name)
		delete(c.procs, name)
		c.stats.Departed++
		c.mu.Unlock()
		return nil
	})
}

// SubmitResize runs a resize on the VM's host and returns the op.
func (c *Cluster) SubmitResize(name string, targetBytes uint64) (*Op, error) {
	c.mu.Lock()
	hostName, ok := c.vmHost[name]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("resize %q: %w", name, ErrUnknownVM)
	}
	if _, inFlight := c.moving[name]; inFlight {
		c.mu.Unlock()
		return nil, fmt.Errorf("resize %q: %w", name, ErrVMMigrating)
	}
	c.mu.Unlock()
	h := c.byName[hostName]
	op, err := h.SubmitResize(name, targetBytes)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.Resized++
	c.mu.Unlock()
	return op, nil
}

// Close shuts down every host, each once its running op has finished.
func (c *Cluster) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	for _, h := range c.hosts {
		h.Close()
	}
}

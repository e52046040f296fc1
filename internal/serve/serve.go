// Package serve is the request-level serving layer over the workload and
// memory-controller stack: a closed- or open-loop multi-tenant client
// driving zipfian key-value requests through each tenant VM's
// translate→cache→DRAM path on a deterministic virtual clock, recording
// per-request service time into latency histograms. The tenants share one
// hypervisor, and the tenants on one socket share its memory controller and
// LLC. A churn driver replays control-plane events — live migration,
// balloon/hotplug resize, Siloz defragmentation — against serving tenants
// mid-run and attributes the latency they cost to explicit event windows,
// which is how the paper's "overheads during VM lifecycle events" question
// becomes a p99-under-churn number instead of a bandwidth delta.
//
// Everything is single-threaded discrete-event simulation in virtual
// nanoseconds: identical configs produce byte-identical reports at any
// host parallelism, and downtime is modeled from copied bytes at a fixed
// bandwidth, never from wall clock.
package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TenantSpec describes one serving tenant: a VM already created on the
// hypervisor, and its client behaviour.
type TenantSpec struct {
	// VM names the tenant's VM.
	VM string
	// TargetQPS, when positive, runs the tenant open-loop: requests
	// arrive at this fixed rate regardless of completions, so a slow
	// server builds queueing delay (the regime where p99 lives). Zero
	// runs the tenant closed-loop on Clients concurrent clients.
	TargetQPS float64
	// Clients is the closed-loop concurrency (default 1).
	Clients int
	// ThinkNs is the closed-loop client's mean think gap between its
	// request completions and its next request (exponentially
	// distributed; 0 = back-to-back).
	ThinkNs float64
	// ValueBytes is the KV value size (default 1024).
	ValueBytes uint64
	// ReadFrac is the GET fraction (default 0.95).
	ReadFrac float64
	// ServerThinkNs is the modeled request-handling compute preceding
	// the first memory access of each request (default 250).
	ServerThinkNs float64
}

// Config configures a serving loop.
type Config struct {
	// Hypervisor hosts the tenants.
	Hypervisor *core.Hypervisor

	// Tenants are the serving tenants; report order follows this order.
	Tenants []TenantSpec
	// DurationNs is the arrival horizon: no request arrives at or after
	// it (requests in flight still complete).
	DurationNs float64
	// SLONs is the per-request latency SLO; requests slower than this
	// count as violations. 0 disables violation counting.
	SLONs float64
	// Seed drives all client randomness (key popularity, think gaps).
	Seed int64

	// CacheBytes sizes the per-station LLC model (default 32 MiB;
	// negative disables the cache).
	CacheBytes int64
	// CacheWays is the LLC associativity (default 16).
	CacheWays int
	// Mitigation, when set, builds the activation-plane defense instance
	// attached to each station's controller (PARA, Silver Bullet) —
	// injected neighbour refreshes occupy banks and surface as serving
	// latency. Called once per station, in deterministic creation order,
	// with host "" (the loop serves one host).
	Mitigation func(host string, socket int) mitigation.Mitigation

	// Churn are control-plane events to replay, in AtNs order.
	Churn []Event
}

const (
	// mlpWindow is the per-station memory-level parallelism.
	mlpWindow = 10
	// copyGiBps is the modeled copy bandwidth behind churn windows.
	copyGiBps = 12
)

// station is the shared memory path for one socket: one memory controller
// and LLC, shared by every tenant living there.
type station struct {
	ctrl  *memctrl.Controller
	cache *memctrl.Cache
}

// blackout is a virtual-time interval during which a tenant cannot start
// requests (the stop-and-copy or pause-gated phase of a churn event).
type blackout struct{ start, end float64 }

// tenant is the runtime state of one serving tenant.
type tenant struct {
	spec   TenantSpec
	idx    int
	socket int
	vm     *core.VM
	st     *station
	gen    *workload.KVRequests
	run    *workload.Runner
	rng    *rand.Rand // think gaps and churn dirtying
	usable uint64     // current usable guest RAM (tracks resizes)

	blackouts []blackout

	hist           *stats.Histogram
	requests       int64
	errors         int64
	violations     int64
	lastCompletion float64
}

// thinkGap draws the tenant's next closed-loop think gap.
func (t *tenant) thinkGap() float64 {
	if t.spec.ThinkNs <= 0 {
		return 0
	}
	return -t.spec.ThinkNs * math.Log(1-t.rng.Float64())
}

// reqEntry is one scheduled request arrival.
type reqEntry struct {
	ready  float64 // arrival time (virtual ns)
	tenant int
	client int
	seq    int64
}

// less is the strict total order (ready, tenant, client, seq) on arrivals,
// so the event loop is deterministic even under arrival-time ties.
func (a reqEntry) less(b reqEntry) bool {
	if a.ready != b.ready {
		return a.ready < b.ready
	}
	if a.tenant != b.tenant {
		return a.tenant < b.tenant
	}
	if a.client != b.client {
		return a.client < b.client
	}
	return a.seq < b.seq
}

// reqHeap is a binary min-heap of arrivals under reqEntry.less. It is typed
// rather than a container/heap adapter because that interface boxes every
// pushed and popped entry — two allocations per request on the hot loop.
type reqHeap []reqEntry

func (h *reqHeap) push(e reqEntry) {
	q := append(*h, e)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

// pop removes and returns the least entry; the heap must be non-empty.
func (h *reqHeap) pop() reqEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	e := q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && q[child+1].less(q[child]) {
			child++
		}
		if !q[child].less(e) {
			break
		}
		q[i] = q[child]
		i = child
	}
	if n > 0 {
		q[i] = e
	}
	return top
}

// Loop is a configured serving loop. Build with New, run once with Run.
type Loop struct {
	cfg      Config
	tenants  []*tenant
	stations map[int]*station // by socket
	events   []Event
	windows  []*Window
	queue    reqHeap
	seq      int64

	total          *stats.Histogram
	lastCompletion float64

	// probeMu guards activeWindow: a lifecycle probe fires on the goroutine
	// running the lifecycle op — the loop's own for a churn event, or a
	// direct caller's that resizes a VM while the loop serves.
	probeMu      sync.Mutex
	activeWindow *Window // set while a churn event executes, for probes
}

// setActiveWindow points probes at the window of the executing event.
func (l *Loop) setActiveWindow(w *Window) {
	l.probeMu.Lock()
	l.activeWindow = w
	l.probeMu.Unlock()
}

// recordProbe, the lifecycle probe of a loop with churn, appends kind@vm to
// the active window, if any. Pre-copy rounds are not recorded.
func (l *Loop) recordProbe(e core.Event) {
	l.probeMu.Lock()
	if w := l.activeWindow; w != nil && e.Kind != core.ProbeMigrateRound {
		w.Probes = append(w.Probes, fmt.Sprintf("%s@%s", e.Kind, e.VM.Name()))
	}
	l.probeMu.Unlock()
}

// New validates the config, resolves every tenant to its VM, builds the
// per-socket stations, and schedules the initial arrivals.
func New(cfg Config) (*Loop, error) {
	if cfg.Hypervisor == nil {
		return nil, fmt.Errorf("serve: need a Hypervisor")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("serve: no tenants")
	}
	if cfg.DurationNs <= 0 {
		return nil, fmt.Errorf("serve: DurationNs must be positive")
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 32 * geometry.MiB
	}
	if cfg.CacheWays == 0 {
		cfg.CacheWays = 16
	}
	for i := 1; i < len(cfg.Churn); i++ {
		if cfg.Churn[i].AtNs < cfg.Churn[i-1].AtNs {
			return nil, fmt.Errorf("serve: churn events must be sorted by AtNs")
		}
	}

	l := &Loop{
		cfg:      cfg,
		stations: make(map[int]*station),
		events:   append([]Event(nil), cfg.Churn...),
		total:    stats.NewHistogram(),
	}
	for i, spec := range cfg.Tenants {
		if spec.Clients <= 0 {
			spec.Clients = 1
		}
		if spec.ValueBytes == 0 {
			spec.ValueBytes = 1024
		}
		if spec.ReadFrac == 0 {
			spec.ReadFrac = 0.95
		}
		if spec.ServerThinkNs == 0 {
			spec.ServerThinkNs = 250
		}
		t := &tenant{
			spec: spec,
			idx:  i,
			rng:  rand.New(rand.NewSource(cfg.Seed + 104729*int64(i) + 7)),
			hist: stats.NewHistogram(),
		}
		vm, ok := cfg.Hypervisor.VM(spec.VM)
		if !ok {
			return nil, fmt.Errorf("serve: VM %q not found", spec.VM)
		}
		t.socket = vm.Spec().Socket
		t.usable = vm.Spec().MemoryBytes
		t.gen = workload.NewKVRequests(t.usable, spec.ValueBytes,
			spec.ReadFrac, spec.ServerThinkNs, cfg.Seed+7919*int64(i)+1)
		if err := t.bind(l); err != nil {
			return nil, err
		}
		l.tenants = append(l.tenants, t)

		if spec.TargetQPS > 0 {
			// Open loop: stagger tenants across the first interval so
			// co-tenants do not arrive in lockstep.
			interval := 1e9 / spec.TargetQPS
			first := interval * float64(i) / float64(len(cfg.Tenants))
			l.push(first, i, 0)
		} else {
			for c := 0; c < spec.Clients; c++ {
				l.push(t.thinkGap(), i, c)
			}
		}
	}
	if len(cfg.Churn) > 0 {
		cfg.Hypervisor.SetLifecycleProbe(l.recordProbe)
	}
	return l, nil
}

// bind (re)attaches the tenant to its VM, station, and runner — called at
// setup and again after every churn event that may have moved the VM or
// changed its size.
func (t *tenant) bind(l *Loop) error {
	vm, ok := l.cfg.Hypervisor.VM(t.spec.VM)
	if !ok {
		return fmt.Errorf("serve: VM %q not found", t.spec.VM)
	}
	t.vm = vm
	t.st = l.station(t.socket)
	t.run = workload.NewRunner(vm, t.st.ctrl, t.st.cache)
	return nil
}

// station returns (creating on first use) the shared memory path for one
// socket. Creation order is deterministic: tenants bind in config order and
// churn events execute in virtual-time order.
func (l *Loop) station(socket int) *station {
	if st, ok := l.stations[socket]; ok {
		return st
	}
	var mit mitigation.Mitigation
	if l.cfg.Mitigation != nil {
		mit = l.cfg.Mitigation("", socket)
	}
	ctrl, err := memctrl.New(memctrl.Config{
		Mapper:     l.cfg.Hypervisor.Memory().Mapper(),
		Timing:     memctrl.DDR4_2933(),
		MLPWindow:  mlpWindow,
		HomeSocket: socket,
		Mitigation: mit,
	})
	if err != nil {
		// Config was validated at New; a mapper failure here is a bug.
		panic(fmt.Sprintf("serve: station controller: %v", err))
	}
	st := &station{ctrl: ctrl}
	if l.cfg.CacheBytes > 0 {
		cache, err := memctrl.NewCache(l.cfg.CacheBytes, l.cfg.CacheWays)
		if err != nil {
			panic(fmt.Sprintf("serve: station cache: %v", err))
		}
		st.cache = cache
	}
	l.stations[socket] = st
	return st
}

// push schedules an arrival if it falls inside the horizon.
func (l *Loop) push(ready float64, tenantIdx, client int) {
	if ready >= l.cfg.DurationNs {
		return
	}
	l.seq++
	l.queue.push(reqEntry{ready: ready, tenant: tenantIdx, client: client, seq: l.seq})
}

// Run drives the loop to completion and returns the report. ctx is
// checked between requests; churn-event errors do not abort the run (they
// are recorded on the event's window — a baseline host refusing
// defragmentation is a result, not a failure). A loop with churn clears the
// hypervisor's lifecycle probe when Run returns.
func (l *Loop) Run(ctx context.Context) (*Report, error) {
	if len(l.cfg.Churn) > 0 {
		defer l.cfg.Hypervisor.SetLifecycleProbe(nil)
	}
	processed := 0
	for len(l.queue) > 0 {
		if processed%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		e := l.queue.pop()
		for len(l.events) > 0 && l.events[0].AtNs <= e.ready {
			ev := l.events[0]
			l.events = l.events[1:]
			l.execute(ctx, ev)
		}
		t := l.tenants[e.tenant]
		completion := l.serveOne(t, e.ready)
		processed++
		if t.spec.TargetQPS > 0 {
			l.push(e.ready+1e9/t.spec.TargetQPS, e.tenant, e.client)
		} else {
			l.push(completion+t.thinkGap(), e.tenant, e.client)
		}
	}
	// Events scheduled after the last arrival still run (their windows
	// report zero traffic).
	for _, ev := range l.events {
		l.execute(ctx, ev)
	}
	l.events = nil
	return l.report(), nil
}

// serveOne serves one request arriving at ready and returns its completion
// time. Latency is completion − arrival: station queueing (a shared
// controller still busy with an earlier tenant's request) and churn
// blackouts both land in it, which is the point.
func (l *Loop) serveOne(t *tenant, ready float64) float64 {
	start := ready
	for _, b := range t.blackouts {
		if start >= b.start && start < b.end {
			start = b.end
		}
	}
	t.st.ctrl.AdvanceTo(start)
	var issueErr error
	for _, run := range t.gen.NextRuns() {
		if err := t.run.IssueRun(run); err != nil {
			issueErr = err
			break
		}
	}
	completion := t.run.FinishRequest()
	t.requests++
	if issueErr != nil {
		t.errors++
		return completion
	}
	lat := completion - ready
	t.hist.Record(lat)
	l.total.Record(lat)
	if l.cfg.SLONs > 0 && lat > l.cfg.SLONs {
		t.violations++
	}
	if completion > t.lastCompletion {
		t.lastCompletion = completion
	}
	if completion > l.lastCompletion {
		l.lastCompletion = completion
	}
	for _, w := range l.windows {
		if ready < w.EndNs && completion > w.StartNs {
			w.Hist.Record(lat)
		}
	}
	return completion
}

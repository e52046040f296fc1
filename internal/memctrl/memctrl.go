// Package memctrl models a DDR4 memory controller's timing behaviour at the
// level the paper's performance claims depend on: per-bank serialization of
// row activations (row buffer hits vs. misses), bank-level parallelism
// across a socket's banks (§2.4 — the >18% effect subarray groups preserve,
// §4.1), limited memory-level parallelism from the core, and NUMA locality.
//
// The controller consumes a stream of physical-address accesses and
// produces simulated execution time and throughput. It is deliberately a
// first-order model: precise absolute latencies are not the point —
// *relative* behaviour between Siloz and the baseline is, and that is
// governed by which banks and rows a mapping spreads accesses over.
package memctrl

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/geometry"
	"repro/internal/mitigation"
	"repro/internal/rowcount"
)

// Timing holds DDR4 timing parameters in nanoseconds (DDR4-2933 defaults).
type Timing struct {
	// TRCD is the activate-to-read delay.
	TRCD float64
	// TRP is the precharge time.
	TRP float64
	// TCL is the CAS latency.
	TCL float64
	// TBurst is the data burst time for one 64-byte line.
	TBurst float64
	// TRRD is the minimum spacing between activations to the same rank.
	TRRD float64
	// TFAW is the rolling window in which a rank accepts at most four
	// activations (the four-activation-window constraint).
	TFAW float64
	// TRFC is the refresh cycle time: how long a refresh occupies a rank.
	TRFC float64
	// TREFI is the average refresh interval; one refresh is issued per
	// TREFI to meet the 64 ms retention window (§2.3).
	TREFI float64
	// RemotePenalty is the added latency for cross-socket accesses.
	RemotePenalty float64
}

// DDR4_2933 returns timings for the evaluation server's DIMMs.
func DDR4_2933() Timing {
	return Timing{
		TRCD:          13.64,
		TRP:           13.64,
		TCL:           13.64,
		TBurst:        2.73,
		TRRD:          4.9,
		TFAW:          21.0,
		TRFC:          350,
		TREFI:         7800,
		RemotePenalty: 60,
	}
}

// hitLatency is the access latency on a row buffer hit.
func (t Timing) hitLatency() float64 { return t.TCL + t.TBurst }

// missLatency is the access latency on a row buffer conflict (precharge +
// activate + CAS).
func (t Timing) missLatency() float64 { return t.TRP + t.TRCD + t.TCL + t.TBurst }

// Config parameterizes a Controller.
type Config struct {
	// Mapper is the physical-to-media decode applied per access.
	Mapper addr.Mapper
	// Timing are the DRAM timing parameters.
	Timing Timing
	// MLPWindow is the maximum number of outstanding memory accesses
	// (the core's memory-level parallelism); typical out-of-order cores
	// sustain ~10 per thread.
	MLPWindow int
	// HomeSocket is the socket the accessing cores live on, for NUMA
	// penalty accounting.
	HomeSocket int
	// JitterSeed adds bounded per-access service-time noise (±1%),
	// modelling run-to-run variance; 0 disables noise.
	JitterSeed int64
	// TrackActivations records per-row activation counts within 64 ms
	// refresh windows, the quantity Rowhammer thresholds are defined
	// over (§2.5). Costs one rowcount.Table add per row miss, in the table
	// of the missed bank.
	TrackActivations bool
	// Mitigation, when non-nil, observes every row miss (flat bank index,
	// media row) and may inject neighbour refreshes; each injected refresh
	// occupies the target bank for a precharge+activate cycle, which is
	// how defense refresh energy becomes visible slowdown. The instance is
	// scoped to this controller run — reuse requires OnWindowEnd between
	// runs, which Reset performs.
	Mitigation mitigation.Mitigation
}

// refreshWindowNs is the DDR4 retention window (64 ms).
const refreshWindowNs = 64e6

// Access is one memory request.
type Access struct {
	// PA is the host physical address.
	PA uint64
	// Write marks stores (otherwise loads).
	Write bool
	// ThinkNs is core compute time between the previous access's issue
	// and this one.
	ThinkNs float64
}

// Result summarizes a simulated run.
type Result struct {
	// TotalNs is the simulated wall time from first issue to last
	// completion.
	TotalNs float64
	// Accesses, Reads and Writes count requests.
	Accesses, Reads, Writes int
	// RowHits and RowMisses classify row buffer behaviour.
	RowHits, RowMisses int
	// Bytes is the data volume moved.
	Bytes int64
	// PeakRowACTs is the maximum activation count any single row
	// received within one 64 ms refresh window (needs
	// Config.TrackActivations). Comparing it against a DIMM's
	// Rowhammer threshold shows whether the access stream could
	// disturb neighbours (§1, §2.5).
	PeakRowACTs int
	// MitigationRefreshes counts defense-injected neighbour refreshes the
	// controller charged as bank busy time (needs Config.Mitigation).
	MitigationRefreshes int
}

// ThroughputGBs returns achieved bandwidth in GB/s.
func (r Result) ThroughputGBs() float64 {
	if r.TotalNs == 0 {
		return 0
	}
	return float64(r.Bytes) / r.TotalNs
}

// OpsPerSec returns achieved request rate.
func (r Result) OpsPerSec() float64 {
	if r.TotalNs == 0 {
		return 0
	}
	return float64(r.Accesses) / (r.TotalNs / 1e9)
}

// HitRate returns the row buffer hit fraction.
func (r Result) HitRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.RowHits) / float64(r.Accesses)
}

func (r Result) String() string {
	return fmt.Sprintf("time=%.2fms ops=%d hit=%.1f%% bw=%.2fGB/s",
		r.TotalNs/1e6, r.Accesses, 100*r.HitRate(), r.ThroughputGBs())
}

// Controller simulates one run; create a fresh one (or call Reset) per run.
//
// Everything the per-access path needs is flattened into scalars and dense
// slices at Reset: geometry dimensions (so no Geometry struct is copied per
// access), latency sums (so no Timing fields are re-added per access), a
// bank->rank table (so the miss path does no division), and per-bank
// activation tables with O(1) generation reset (so refresh windows do not
// reallocate).
type Controller struct {
	cfg Config

	bankFree []float64    // per flat bank: earliest next activation
	openRow  []int        // per flat bank: row in the row buffer (-1 closed)
	faw      [][4]float64 // per rank: times of the last four activations
	fawPos   []int
	lastAct  []float64 // per rank: time of the last activation (tRRD)
	rankOf   []int32   // per flat bank: rank index
	ring     []float64 // completion times of the last MLPWindow requests
	ringPos  int
	now      float64 // issue clock
	last     float64 // latest completion
	res      Result
	rng      *rand.Rand
	runScale float64 // per-run latency scale (thermal/frequency noise)

	homeSocket int

	// Cached timing sums (same addition order as Timing.hitLatency and
	// Timing.missLatency, so results are bit-identical to per-call sums).
	hitLat, missLat float64
	hitOcc, missOcc float64
	trefi, trfc     float64
	trrd, tfaw      float64
	remote          float64
	refreshModel    bool

	peak  peakTracker // observes the miss path under Config.TrackActivations
	chain mitigation.Chain
	links [2]mitigation.Mitigation // chain's backing array: Reset allocates nothing

	// Mitigation hook: Config.Mitigation, behind peak when tracking is on.
	// mitSink is the pre-bound method value handed to OnActivate so the
	// miss path never allocates a closure; mitOcc is the bank occupancy one
	// injected refresh charges.
	mit          mitigation.Mitigation
	mitSink      mitigation.RefreshFn
	mitWindow    int64
	mitOcc       float64
	mitRefreshes int
}

// New builds a controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Mapper == nil {
		return nil, fmt.Errorf("memctrl: mapper required")
	}
	if cfg.MLPWindow <= 0 {
		return nil, fmt.Errorf("memctrl: MLPWindow must be positive, got %d", cfg.MLPWindow)
	}
	c := &Controller{cfg: cfg}
	c.Reset()
	return c, nil
}

// Reset clears all timing state for a new run.
func (c *Controller) Reset() {
	g := c.cfg.Mapper.Geometry()
	n := g.TotalBanks()
	c.bankFree = make([]float64, n)
	c.openRow = make([]int, n)
	for i := range c.openRow {
		c.openRow[i] = -1
	}
	ranks := n / g.BanksPerRank
	c.faw = make([][4]float64, ranks)
	c.fawPos = make([]int, ranks)
	c.lastAct = make([]float64, ranks)
	for r := range c.faw {
		for i := range c.faw[r] {
			c.faw[r][i] = -1e18
		}
		c.lastAct[r] = -1e18
	}
	c.rankOf = make([]int32, n)
	for b := range c.rankOf {
		c.rankOf[b] = int32(b / g.BanksPerRank)
	}
	c.ring = make([]float64, c.cfg.MLPWindow)
	c.ringPos = 0
	c.now = 0
	c.last = 0
	c.res = Result{}

	c.homeSocket = c.cfg.HomeSocket
	tm := c.cfg.Timing
	c.hitLat = tm.hitLatency()
	c.missLat = tm.missLatency()
	c.hitOcc = tm.TBurst
	c.missOcc = tm.TRP + tm.TRCD + tm.TBurst
	c.trefi, c.trfc = tm.TREFI, tm.TRFC
	c.trrd, c.tfaw = tm.TRRD, tm.TFAW
	c.remote = tm.RemotePenalty
	c.refreshModel = tm.TREFI > 0 && tm.TRFC > 0

	c.peak.peak = 0
	c.mit, c.mitSink = c.cfg.Mitigation, nil
	if c.mit != nil {
		c.mitSink = c.applyMitRefresh // the tracker alone never refreshes
	}
	if c.cfg.TrackActivations {
		if len(c.peak.tables) != n { // else reuse their capacity: OnWindowEnd below clears them
			c.peak.tables = make([]rowcount.Table[int32], n)
		}
		if c.mit == nil {
			c.mit = &c.peak
		} else {
			c.links = [2]mitigation.Mitigation{&c.peak, c.mit}
			c.chain = c.links[:]
			c.mit = &c.chain
		}
	}
	if c.mit != nil {
		c.mit.OnWindowEnd() // clear per-window state left by a prior run
	}
	c.mitWindow = 0
	// One injected neighbour refresh costs a precharge + activate per
	// victim neighbourhood — the bank cannot serve demand traffic while
	// its rows are being restored.
	c.mitOcc = 2 * (tm.TRP + tm.TRCD)
	c.mitRefreshes = 0
	c.runScale = 1
	if c.cfg.JitterSeed != 0 {
		c.rng = rand.New(rand.NewSource(c.cfg.JitterSeed))
		// Per-run systematic noise (±0.3%), modelling frequency and
		// thermal drift between benchmark repetitions.
		c.runScale = 1 + (c.rng.Float64()-0.5)*0.006
	} else {
		c.rng = nil
	}
}

// Do issues one access, returning its completion time.
func (c *Controller) Do(a Access) (float64, error) {
	done, _, err := c.DoTimed(a)
	return done, err
}

// DoTimed issues one access, returning its completion time and the latency
// observable by the issuing core: completion minus the instant the request
// was ready to issue. The observable latency includes bank queueing delay —
// the contention signal DRAM timing side channels measure (§8.4).
func (c *Controller) DoTimed(a Access) (done, observed float64, err error) {
	bank, row, socket, err := c.cfg.Mapper.DecodeBank(a.PA)
	if err != nil {
		return 0, 0, err
	}
	done, observed = c.DoDecoded(bank, row, socket, a.Write, a.ThinkNs)
	return done, observed, nil
}

// Mapper returns the physical-to-media decode the controller applies: what a
// caller that decodes for itself, ahead of DoDecoded, must decode with.
func (c *Controller) Mapper() addr.Mapper { return c.cfg.Mapper }

// DoDecoded is DoTimed past its decode: it issues one access to coordinates
// the caller already holds — (bank, row, socket) as Mapper().DecodeBank
// returns them, or stepped from one Mapper().Stripe decode along a run of
// consecutive lines. thinkNs is the core compute time since the previous
// access's issue.
func (c *Controller) DoDecoded(bank, row, socket int, write bool, thinkNs float64) (done, observed float64) {
	// Core-side issue: think time plus the MLP window constraint (the
	// oldest outstanding request must have completed).
	c.now += thinkNs * c.runScale
	if oldest := c.ring[c.ringPos]; oldest > c.now {
		c.now = oldest
	}
	ready := c.now

	start := c.now
	if bf := c.bankFree[bank]; bf > start {
		start = bf
	}
	var latency, occupancy float64
	missed := false
	if c.openRow[bank] == row {
		latency = c.hitLat
		occupancy = c.hitOcc
		c.res.RowHits++
	} else {
		missed = true
		// A row miss needs an activation, subject to the rank's
		// refresh, tRRD and tFAW constraints.
		rank := c.rankOf[bank]
		if c.refreshModel {
			refStart := float64(int64(start/c.trefi)) * c.trefi
			if start < refStart+c.trfc {
				start = refStart + c.trfc
			}
		}
		if t := c.lastAct[rank] + c.trrd; t > start {
			start = t
		}
		if t := c.faw[rank][c.fawPos[rank]] + c.tfaw; t > start {
			start = t
		}
		c.faw[rank][c.fawPos[rank]] = start
		c.fawPos[rank] = (c.fawPos[rank] + 1) & 3
		c.lastAct[rank] = start

		latency = c.missLat
		occupancy = c.missOcc
		c.res.RowMisses++
		c.openRow[bank] = row
	}
	if socket != c.homeSocket {
		latency += c.remote
	}
	if c.rng != nil {
		latency *= c.runScale * (1 + (c.rng.Float64()-0.5)*0.02)
	}
	c.bankFree[bank] = start + occupancy*c.runScale
	if c.mit != nil && missed {
		// After the bankFree write: an injected refresh extends the
		// bank's busy time on top of this access's own occupancy.
		c.observeMit(bank, row, start)
	}
	done = start + latency
	c.ring[c.ringPos] = done
	if c.ringPos++; c.ringPos == len(c.ring) {
		c.ringPos = 0
	}
	if done > c.last {
		c.last = done
	}

	c.res.Accesses++
	if write {
		c.res.Writes++
	} else {
		c.res.Reads++
	}
	c.res.Bytes += geometry.CacheLineSize
	return done, done - ready
}

// observeMit feeds one row miss to the attached mitigation, turning the
// refresh window over first when the activation's start time crossed a
// 64 ms boundary in either direction — per-bank start times are not
// globally monotone. Per-window state (defense counters and budgets, the
// tracker's row tables) resets exactly as the DRAM model's Refresh does.
func (c *Controller) observeMit(bank, row int, at float64) {
	if w := int64(at / refreshWindowNs); w != c.mitWindow {
		c.mitWindow = w
		c.mit.OnWindowEnd()
	}
	c.mit.OnActivate(mitigation.Activation{Bank: bank, Row: row, Count: 1}, c.mitSink)
}

// applyMitRefresh charges one defense-injected neighbour refresh to the
// target bank as busy time. The controller has no DRAM disturbance state
// of its own, so charge accounting is the whole effect here; protection
// legs observe the same mitigation attached at the DRAM module scope.
func (c *Controller) applyMitRefresh(bank, _ int) {
	c.bankFree[bank] += c.mitOcc
	c.mitRefreshes++
}

// Idle advances the core's clock by think-only time (e.g. trailing cache
// hits) with no DRAM access.
func (c *Controller) Idle(ns float64) {
	c.now += ns * c.runScale
	if c.now > c.last {
		c.last = c.now
	}
}

// Now returns the core's issue clock: the virtual time up to which this
// controller has issued work. The serving loop aligns request admission
// against it.
func (c *Controller) Now() float64 { return c.now }

// AdvanceTo moves the issue clock forward to at least t (e.g. to a
// request's arrival time) without extending the completion frontier:
// unlike Idle, waiting for the next arrival is not simulated work, so it
// does not count toward Result.TotalNs on its own.
func (c *Controller) AdvanceTo(t float64) {
	if t > c.now {
		c.now = t
	}
}

// Result returns the run summary so far.
func (c *Controller) Result() Result {
	r := c.res
	r.TotalNs = c.last
	r.PeakRowACTs = c.peak.peak
	r.MitigationRefreshes = c.mitRefreshes
	return r
}

// peakTracker observes the miss path like a defense that never refreshes:
// one bounded row table per flat bank, all invalidated in O(1) per table when
// the refresh window turns over, and the highest count a row reached in one
// window.
type peakTracker struct {
	tables []rowcount.Table[int32]
	peak   int
}

func (p *peakTracker) Name() string                  { return "peak-acts" }
func (p *peakTracker) Overhead() mitigation.Overhead { return mitigation.Overhead{} }
func (p *peakTracker) Health() error                 { return nil }

// OnActivate counts a burst toward its row's total in this window.
func (p *peakTracker) OnActivate(ev mitigation.Activation, _ mitigation.RefreshFn) {
	if n := int(p.tables[ev.Bank].Add(ev.Row, int32(ev.Count))); n > p.peak {
		p.peak = n
	}
}

// OnWindowEnd discards every row's count; the peak stands.
func (p *peakTracker) OnWindowEnd() {
	for i := range p.tables {
		p.tables[i].Reset()
	}
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// size selects how much simulated work one trial does. Smoke trials run the
// same code paths in well under a second each, for the package's own tests.
type size int

const (
	sizeFull size = iota
	sizeSmoke
)

// Per-use seed salts: every generator draws from its own stream of the one
// --seed, so changing how one input is generated never shifts another.
const (
	saltServe int64 = iota + 1 // KV keys and think gaps (serve derives per-tenant streams)
	saltDefense
	saltStream
	saltFuzzer
	saltStamp
	saltLadder
)

// salted derives the seed of one generator from the run's --seed.
func salted(seed, salt int64) int64 { return seed*1_000_003 + salt*7919 }

// outcome is what one trial produced.
type outcome struct {
	// ops is how many operations the trial attempted; failed counts those
	// that returned an error or were refused unexpectedly.
	ops, failed int64
	// sim holds the simulated results (sim_*): exact for a seed, so any
	// change in one is a change of the model, not of the simulator's speed.
	sim map[string]float64
	// layer holds per-layer counts and ratios read off the run itself.
	layer map[string]float64
	// report is the canonical simulated report; all trials of a run must
	// produce it byte for byte, and its SHA-256 is printed as sim_digest.
	report string
}

// world is freshly built simulated state for exactly one trial: hammering
// and churn mutate DRAM and allocator state, so a reused world changes the
// answer.
type world interface {
	// run does the trial's fixed simulated work; it is the timed region.
	run(ctx context.Context) (*outcome, error)
	// check applies the workload's correctness gates to a finished trial.
	check(o *outcome) error
	// close releases the world (stops fleet host loops).
	close()
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// op is the unit host_ns_per_op divides by.
	op string
	// why records the reason the workload is in the benchmark.
	why string
	// build constructs a fresh world from the seed; its time is set-up.
	// With a tracer, calls the benchmark itself drives are wrapped in spans.
	build func(seed int64, sz size, tr *tracer) (world, error)
	// ladder times, from outside, the layers whose calls happen inside the
	// program under test (traced run only). It adds spans to tr and
	// per-layer counts to layer, which arrives holding the last traced
	// trial's counts and the invocation's host_ns_per_op.
	ladder func(ctx context.Context, seed int64, sz size, tr *tracer, layer map[string]float64) error
}

// sample is one trial. Its times are CPU time of the process (processCPU):
// the workloads run on one thread, so on a quiet machine that is the wall
// time, and on a shared one it leaves out the time the core was taken away.
type sample struct {
	buildS        float64 // world build alone
	setupS        float64 // the whole trial: world build, the trial's work, its checks
	nsPerOp       float64
	wallNsPerOp   float64 // the timed region by the wall clock, printed beside nsPerOp
	allocsPerOp   float64
	allocBPerOp   float64
	ops, failed   int64
	outcome       *outcome
	liveHeapBytes uint64 // only on the last trial
}

// result is one workload's untraced run.
type result struct {
	workload string
	samples  []sample
	metrics  map[string]float64 // end-to-end metrics by name
	buildS   float64            // the world build alone, the part of setup_s constructors own
	sim      map[string]float64
	digest   string
	ops      int64 // attempted, all timed trials
	failed   int64
}

// trialOnce builds a fresh world, runs and checks one trial, and returns the
// measurements. keepHeap additionally measures the live heap while the
// world is still reachable.
func trialOnce(ctx context.Context, w *workloadDef, seed int64, sz size, tr *tracer, keepHeap bool) (sample, error) {
	var s sample
	runtime.GC() // the previous trial's world is garbage; do not collect it inside this build
	c0 := processCPU()
	wd, err := w.build(seed, sz, tr)
	if err != nil {
		return s, fmt.Errorf("%s: build: %w", w.name, err)
	}
	defer wd.close()
	s.buildS = (processCPU() - c0).Seconds()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr.begin("benchmark", "trial")
	start, cpuStart := time.Now(), processCPU()
	o, err := wd.run(ctx)
	cpu, wall := processCPU()-cpuStart, time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return s, fmt.Errorf("%s: run: %w", w.name, err)
	}
	tr.end(o.ops)
	if o.ops < 1 {
		return s, fmt.Errorf("%s: trial attempted no operations", w.name)
	}
	if err := wd.check(o); err != nil {
		return s, fmt.Errorf("%s: incorrect output: %w", w.name, err)
	}
	s.setupS = (processCPU() - c0).Seconds()
	s.outcome, s.ops, s.failed = o, o.ops, o.failed
	s.nsPerOp = float64(cpu.Nanoseconds()) / float64(o.ops)
	s.wallNsPerOp = float64(wall.Nanoseconds()) / float64(o.ops)
	s.allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(o.ops)
	s.allocBPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(o.ops)
	if keepHeap {
		runtime.GC()
		runtime.ReadMemStats(&after)
		s.liveHeapBytes = after.HeapAlloc
		runtime.KeepAlive(wd)
	}
	return s, nil
}

// minTrials is the fewest timed trials a run reports quartiles of.
const minTrials = 3

// measure runs one workload untraced: one warm-up trial, then timed trials
// of identical simulated work, each on a freshly built world, until the
// measuring budget is spent. Every trial must produce the same canonical
// simulated report.
func measure(ctx context.Context, w *workloadDef, seed int64, sz size, budget time.Duration) (*result, error) {
	res := &result{workload: w.name}
	// Start every workload from a released heap, as a fresh process would:
	// spans left mapped by an earlier workload make this one's set-up faster
	// or slower depending on what ran before it.
	debug.FreeOSMemory()
	t0 := time.Now()
	warm, err := trialOnce(ctx, w, seed, sz, nil, false)
	if err != nil {
		return nil, err
	}
	want := warm.outcome.report

	// Stop when another trial would overrun the budget; the last trial
	// also pays for the live-heap reading, so it is decided up front.
	cost := time.Since(t0)
	start := time.Now()
	for i := 0; ; i++ {
		last := i+1 >= minTrials && time.Since(start)+2*cost > budget
		t := time.Now()
		s, err := trialOnce(ctx, w, seed, sz, nil, last)
		if err != nil {
			return nil, err
		}
		cost = time.Since(t)
		if s.outcome.report != want {
			return nil, fmt.Errorf("%s: trial %d produced a different simulated report than the warm-up", w.name, i)
		}
		if !last {
			s.outcome = nil // only the final trial's simulated results are reported
		}
		res.samples = append(res.samples, s)
		res.ops += s.ops
		res.failed += s.failed
		if last {
			break
		}
	}

	pick := func(f func(sample) float64) []float64 {
		xs := make([]float64, len(res.samples))
		for i, s := range res.samples {
			xs[i] = f(s)
		}
		return xs
	}
	// Set-up is what stands between a workload's start and its first timed
	// trial: a world build and the warm-up trial on it. Every trial of the run
	// repeats exactly that, so it is sampled at each, the warm-up included.
	setups := append(pick(func(s sample) float64 { return s.setupS }), warm.setupS)
	res.buildS = undisturbed(append(pick(func(s sample) float64 { return s.buildS }), warm.buildS))
	final := res.samples[len(res.samples)-1]
	res.metrics = map[string]float64{
		"setup_s":            undisturbed(setups),
		"host_ns_per_op":     undisturbed(pick(func(s sample) float64 { return s.nsPerOp })),
		"allocs_per_op":      median(pick(func(s sample) float64 { return s.allocsPerOp })),
		"alloc_bytes_per_op": median(pick(func(s sample) float64 { return s.allocBPerOp })),
		"live_heap_mib":      float64(final.liveHeapBytes) / (1 << 20),
	}
	res.sim = final.outcome.sim
	res.sim["failed_ops_frac"] = float64(res.failed) / float64(res.ops)
	sum := sha256.Sum256([]byte(want))
	res.digest = hex.EncodeToString(sum[:])
	return res, nil
}

// traceResult is one workload's traced run.
type traceResult struct {
	workload string
	values   map[string]float64 // every traced metric by name
	rungs    map[string]rung
	ops      int64
	failed   int64
	file     string
	baseNs   float64 // untraced host ns/op measured in this invocation
}

// tracedTrials is how many trials each side of the overhead comparison
// runs; their first quartiles are compared.
func tracedTrials(sz size) int {
	if sz == sizeSmoke {
		return 1
	}
	return 3
}

// traceRun is the traced invocation: untraced trials for the reference
// host_ns_per_op, each followed by a traced one (spans around the calls the
// benchmark itself drives), then the workload's ladder. Spans stay in
// memory until the end and go to dir/trace-<workload>.jsonl.
func traceRun(ctx context.Context, w *workloadDef, seed int64, sz size, dir string) (*traceResult, error) {
	res := &traceResult{workload: w.name}
	tr := newTracer(w.name)
	var base, traced []float64
	var last *outcome
	// Untraced and traced trials alternate, so that a drift of the machine's
	// speed lands on both sides of the overhead comparison.
	for i := 0; i < tracedTrials(sz); i++ {
		u, err := trialOnce(ctx, w, seed, sz, nil, false)
		if err != nil {
			return nil, err
		}
		base = append(base, u.nsPerOp)
		tr.trial = i
		s, err := trialOnce(ctx, w, seed, sz, tr, false)
		if err != nil {
			return nil, err
		}
		if s.outcome.report != u.outcome.report {
			return nil, fmt.Errorf("%s: traced trial %d produced a different simulated report than the untraced one", w.name, i)
		}
		traced = append(traced, s.nsPerOp)
		res.ops += s.ops
		res.failed += s.failed
		last = s.outcome
	}
	res.baseNs = undisturbed(base)

	counts := map[string]float64{
		"trace_overhead_frac": (undisturbed(traced) - res.baseNs) / res.baseNs,
		"failed_ops_frac":     float64(res.failed) / float64(res.ops),
		// For the ladders: all trials of this invocation, traced or not.
		"host_ns_per_op": undisturbed(append(base, traced...)),
	}
	for k, v := range last.layer {
		counts[k] = v
	}
	for k, v := range last.sim {
		counts[k] = v
	}
	tr.trial = -1
	tr.begin("benchmark", "ladder")
	err := w.ladder(ctx, seed, sz, tr, counts)
	tr.end(0)
	if err != nil {
		return nil, fmt.Errorf("%s: ladder: %w", w.name, err)
	}
	res.rungs = tr.rungs()
	res.values = layerValues(res.rungs, counts)
	file, err := tr.write(dir)
	if err != nil {
		return nil, err
	}
	res.file = file
	return res, nil
}

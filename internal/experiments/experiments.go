// Package experiments reruns the paper's evaluation (§7): every table and
// figure is an Experiment — a name, a parameter resolver and a body —
// registered in the package registry. `siloz bench` and the repository's
// benchmark suite dispatch from the registry and render the structured
// Results with RenderText / RenderJSON; experiment bodies compute, they
// never print.
//
// RunAll schedules experiments onto a bounded worker Pool, fanning out
// both across experiments and across each experiment's repetitions.
// Per-rep RNG streams derive from the base seed and the rep index alone
// (rand.NewSource(seed + rep*salt)), and every parallel fan-out collects
// results by index, so a parallel run is bit-for-bit identical to a
// serial one.
package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/stats"
	"repro/internal/workload"
)

// PerfConfig parameterizes the performance experiments (Figs. 4-7).
type PerfConfig struct {
	// Geometry of the simulated server.
	Geometry geometry.Geometry
	// VMMemory is the benchmark VM's RAM (paper: 160 GiB).
	VMMemory uint64
	// Ops is logical operations per run.
	Ops int
	// Reps is repetitions per configuration (for confidence intervals).
	Reps int
	// MLPWindow is the simulated core's memory-level parallelism.
	MLPWindow int
	// Seed bases all per-rep seeds; rep i draws from
	// rand.NewSource(Seed + i*repSeedSalt) (see RepSeed), so reps are
	// independent streams no matter which pool worker runs them.
	Seed int64
	// JitterSalt decorrelates timing noise between system configurations
	// (independent reruns on different kernels, as in the paper).
	JitterSalt int64
}

// perfConfig resolves the performance parameters. The default set mirrors
// the paper's setup — the dual-socket Skylake server with a 160 GiB, 40-vCPU
// VM on socket 0; -quick shrinks the VM and the run for tests.
func perfConfig(f Flags) PerfConfig {
	cfg := PerfConfig{
		Geometry:  geometry.Default(),
		VMMemory:  160 * geometry.GiB,
		Ops:       120_000,
		Reps:      5,
		MLPWindow: 10,
		Seed:      1,
	}
	if f.Quick {
		cfg.VMMemory = 6 * geometry.GiB
		cfg.Ops = 15_000
		cfg.Reps = 3
	}
	cfg.Seed, cfg.Ops, cfg.Reps = f.seed(cfg.Seed), override(f.Ops, cfg.Ops), override(f.Reps, cfg.Reps)
	return cfg
}

// bootBenchVM boots a hypervisor and creates the benchmark VM on socket 0.
// A non-zero subarrayRows overrides the geometry's rows per subarray.
func bootBenchVM(cfg PerfConfig, mode core.Mode, subarrayRows int) (*core.VM, error) {
	g := cfg.Geometry
	if subarrayRows != 0 {
		g = g.WithSubarraySize(subarrayRows)
	}
	// Performance experiments need no bit flips: the no-TRR profile,
	// transforms intact.
	h, err := bootLab(g, dram.ProfileF(), ept.GuardRows, mode)
	if err != nil {
		return nil, err
	}
	return h.CreateVM(core.KVMProcess(), core.VMSpec{
		Name:   "bench",
		Socket: 0,
		// 4 GiB per logical core in the paper; here simply cfg.VMMemory.
		MemoryBytes: cfg.VMMemory,
		VCPUs:       cfg.Geometry.CoresPerSocket,
	})
}

// llcBytes is the modelled last-level cache capacity (the Xeon Gold 6230
// has 27.5 MiB of L3; we round to 32 MiB).
const llcBytes = 32 * geometry.MiB

// jitterSeed seeds rep's memory-controller timing noise; the jitter salt
// decorrelates system configurations, nameSalt decorrelates workloads.
func jitterSeed(cfg PerfConfig, name string, rep int) int64 {
	return cfg.Seed + cfg.JitterSalt*92821 + int64(rep)*1009 + nameSalt(name) + 1
}

// measure runs a workload Reps times on a fresh controller each time,
// returning a sample of the chosen metric. Reps fan out onto the pool;
// each writes its own index of the sample, so the sample's value order is
// scheduling-independent. Rep i's access stream draws from
// rand.NewSource(RepSeed(cfg.Seed, i)). Workloads run behind a last-level
// cache model unless they declare themselves cache-bypassing (Intel MLC).
//
// defense, when non-nil, puts an activation-plane defense on the
// controller: defense(rep) builds the rep's instance (fresh per rep — a
// mitigation is scoped to one controller run). A nil defense, or one
// returning nil, measures undefended.
func measure(ctx context.Context, pool *Pool, cfg PerfConfig, vm *core.VM, w workload.Workload, metric func(memctrl.Result) float64, defense func(rep int) mitigation.Mitigation) (stats.Sample, error) {
	s := stats.Sample{Name: w.Name(), Values: make([]float64, cfg.Reps)}
	bypass := false
	if b, ok := w.(interface{ BypassesCache() bool }); ok {
		bypass = b.BypassesCache()
	}
	err := pool.Map(ctx, cfg.Reps, func(rep int) error {
		var mit mitigation.Mitigation
		if defense != nil {
			mit = defense(rep)
		}
		ctrl, err := memctrl.New(memctrl.Config{
			Mapper:     vm.Hypervisor().Memory().Mapper(),
			Timing:     memctrl.DDR4_2933(),
			MLPWindow:  cfg.MLPWindow,
			HomeSocket: vm.Spec().Socket,
			JitterSeed: jitterSeed(cfg, w.Name(), rep),
			Mitigation: mit,
		})
		if err != nil {
			return err
		}
		var cache *memctrl.Cache
		if !bypass {
			if cache, err = memctrl.NewCache(llcBytes, 16); err != nil {
				return err
			}
		}
		res, err := workload.RunOnVM(vm, ctrl, cache, w, cfg.Ops, RepSeed(cfg.Seed, rep))
		if err != nil {
			return err
		}
		s.Values[rep] = metric(res)
		return nil
	})
	return s, err
}

// nameSalt decorrelates timing noise across workloads.
func nameSalt(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h = (h ^ int64(c)) * 1099511628211
	}
	return h % 100003
}

// execTime is the execution-time metric (lower is better).
func execTime(r memctrl.Result) float64 { return r.TotalNs }

// throughput is the bandwidth metric (higher is better); Figs. 5/7 plot
// overhead, so we invert to keep "positive = worse".
func throughput(r memctrl.Result) float64 { return 1 / r.ThroughputGBs() }

// withinHalfPercent reports whether a figure's geometric-mean overhead
// reproduces the paper's headline claim: within ±0.5%.
func withinHalfPercent(geomeanPct float64) bool {
	return geomeanPct < 0.5 && geomeanPct > -0.5
}

// figure records one computed bar chart — baseline-normalized overheads
// with confidence intervals, closed by the geometric mean of their ratios —
// as the series name, and returns that geomean overhead in percent.
func (r *Result) figure(name string, bars []stats.Normalized) float64 {
	s := Series{Name: name, Unit: "%"}
	ratios := make([]float64, len(bars))
	for i, bar := range bars {
		s.Points = append(s.Points, Point{Label: bar.Name, Value: bar.OverheadPct, CI: bar.CIPct})
		ratios[i] = 1 + bar.OverheadPct/100
	}
	geomean := 100 * (stats.GeoMean(ratios) - 1)
	s.Points = append(s.Points, Point{Label: "geomean", Value: geomean})
	r.Series = append(r.Series, s)
	return geomean
}

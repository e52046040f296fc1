package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fig4Workloads are the execution-time workloads of Fig. 4: redis+YCSB A-F,
// terasort, and the SPEC/PARSEC suites (reported as single aggregate bars).
func fig4Workloads() ([]workload.Workload, []suite) {
	singles := append(workload.AllYCSB(), workload.Terasort{})
	suites := []suite{
		{name: "spec", members: workload.SPECSuite()},
		{name: "parsec", members: workload.PARSECSuite()},
	}
	return singles, suites
}

// suite aggregates several workloads into one reported bar (geomean), the
// way the paper reports SPEC and PARSEC.
type suite struct {
	name    string
	members []workload.Workload
}

// fig5Workloads are the throughput workloads of Fig. 5.
func fig5Workloads() []workload.Workload {
	return append([]workload.Workload{workload.Memcached{}, workload.Sysbench{}}, workload.AllMLC()...)
}

// comparePerf measures every workload under two hypervisor variants and
// normalizes variant metrics to the reference. Workloads are visited in
// order; within each, reps fan out onto the pool (suite reps fan out as
// whole units, each running its members serially), so bar order — and
// every bar's value — is independent of scheduling.
func comparePerf(ctx context.Context, pool *Pool, cfg PerfConfig,
	refMode, varMode core.Mode, refRows, varRows int,
	singles []workload.Workload, suites []suite,
	metric func(memctrl.Result) float64) ([]stats.Normalized, error) {

	refCfg, varCfg := cfg, cfg
	refCfg.JitterSalt = 1 + 3*int64(refMode) + 17*int64(refRows)
	varCfg.JitterSalt = 2 + 5*int64(varMode) + 23*int64(varRows)

	refVM, err := bootBenchVM(cfg, refMode, refRows)
	if err != nil {
		return nil, fmt.Errorf("booting reference: %w", err)
	}
	varVM, err := bootBenchVM(cfg, varMode, varRows)
	if err != nil {
		return nil, fmt.Errorf("booting variant: %w", err)
	}

	var bars []stats.Normalized
	addBar := func(name string, ref, vr stats.Sample) {
		n := stats.Normalize(vr, ref)
		n.Name = name
		bars = append(bars, n)
	}
	for _, w := range singles {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ref, err := measure(ctx, pool, refCfg, refVM, w, metric, nil)
		if err != nil {
			return nil, err
		}
		vr, err := measure(ctx, pool, varCfg, varVM, w, metric, nil)
		if err != nil {
			return nil, err
		}
		addBar(w.Name(), ref, vr)
	}
	for _, s := range suites {
		// Geomean the members into one synthetic value per rep. Each rep
		// is one pool task: it runs every member once, serially, under
		// rep-derived seeds, and writes slot rep of both samples.
		refParts := make([]stats.Sample, cfg.Reps)
		varParts := make([]stats.Sample, cfg.Reps)
		err := pool.Map(ctx, cfg.Reps, func(rep int) error {
			repRef, repVar := refCfg, varCfg
			repRef.Reps, repVar.Reps = 1, 1
			repRef.Seed = RepSeed(cfg.Seed, rep)
			repVar.Seed = repRef.Seed
			var refVals, varVals []float64
			for _, w := range s.members {
				ref, err := measure(ctx, nil, repRef, refVM, w, metric, nil)
				if err != nil {
					return err
				}
				vr, err := measure(ctx, nil, repVar, varVM, w, metric, nil)
				if err != nil {
					return err
				}
				refVals = append(refVals, ref.Values[0])
				varVals = append(varVals, vr.Values[0])
			}
			refParts[rep] = stats.Sample{Values: []float64{stats.GeoMean(refVals)}}
			varParts[rep] = stats.Sample{Values: []float64{stats.GeoMean(varVals)}}
			return nil
		})
		if err != nil {
			return nil, err
		}
		addBar(s.name, stats.Concat(s.name, refParts...), stats.Concat(s.name, varParts...))
	}
	return bars, nil
}

// figureExp is the body of the single-figure experiments: every workload
// under Siloz normalized to the baseline hypervisor.
func figureExp(ctx context.Context, pool *Pool, cfg PerfConfig, name, title string,
	singles []workload.Workload, suites []suite, metric func(memctrl.Result) float64) (*Result, error) {
	bars, err := comparePerf(ctx, pool, cfg, core.ModeBaseline, core.ModeSiloz, 0, 0, singles, suites, metric)
	if err != nil {
		return nil, err
	}
	r := &Result{Name: name, Title: title}
	geomean := r.figure("overhead", bars)
	r.scalar("geomean_overhead_pct", geomean)
	r.check("within_half_percent", withinHalfPercent(geomean),
		fmt.Sprintf("geomean %+.2f%%, paper claims within ±0.5%%", geomean))
	return r, nil
}

// fig4Exp is the "fig4" experiment, Figure 4: baseline-normalized execution
// time for Siloz across redis+YCSB, terasort, SPEC and PARSEC.
func fig4Exp(ctx context.Context, pool *Pool, cfg PerfConfig) (*Result, error) {
	singles, suites := fig4Workloads()
	return figureExp(ctx, pool, cfg, "fig4", "Figure 4: baseline-normalized execution time overhead (Siloz)",
		singles, suites, execTime)
}

// fig5Exp is the "fig5" experiment, Figure 5: baseline-normalized throughput
// overhead for Siloz across memcached, mySQL and Intel MLC modes.
func fig5Exp(ctx context.Context, pool *Pool, cfg PerfConfig) (*Result, error) {
	return figureExp(ctx, pool, cfg, "fig5", "Figure 5: baseline-normalized throughput overhead (Siloz)",
		fig5Workloads(), nil, throughput)
}

// fig67Exp is the "fig67" experiment, Figures 6 and 7: the §7.4 sweep of
// Siloz-512 and Siloz-2048 normalized to Siloz-1024, execution time (Fig. 6)
// then throughput (Fig. 7), one series per figure and size (e.g.
// "fig6-siloz512").
func fig67Exp(ctx context.Context, pool *Pool, cfg PerfConfig) (*Result, error) {
	singles, suites := fig4Workloads()
	r := &Result{Name: "fig67", Title: "Figures 6+7: subarray size sensitivity (§7.4)"}
	for _, m := range []struct {
		fig     string
		singles []workload.Workload
		suites  []suite
		metric  func(memctrl.Result) float64
	}{
		{"6", singles, suites, execTime},
		{"7", fig5Workloads(), nil, throughput},
	} {
		for _, rows := range []int{512, 2048} {
			bars, err := comparePerf(ctx, pool, cfg, core.ModeSiloz, core.ModeSiloz, 1024, rows, m.singles, m.suites, m.metric)
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("fig%s-siloz%d", m.fig, rows)
			geomean := r.figure(key, bars)
			r.scalar(key+"_geomean_pct", geomean)
			r.check(key+"_within_half_percent", withinHalfPercent(geomean),
				fmt.Sprintf("geomean %+.2f%%", geomean))
		}
	}
	return r, nil
}

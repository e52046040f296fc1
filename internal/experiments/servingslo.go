package experiments

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/mitigation"
	"repro/internal/serve"
	"repro/internal/stats"
)

// servingSLOParams parameterizes the "serving-slo" experiment: two
// open-loop KV-serving tenants (one per socket) run against every
// deployable Rowhammer defense in a quiet scenario and a churn scenario —
// the same resize/migrate/defrag schedule replayed mid-serving — and each
// cell reports achieved QPS, latency percentiles, and the fraction of
// requests that missed the SLO. This is the paper's overhead question
// asked the way a service owner asks it: not "how much bandwidth", but
// "what happens to my p99 while the control plane churns".
type servingSLOParams struct {
	// Kinds selects defense rows, in canonical order.
	Kinds []mitigation.Kind
	// Scenarios selects columns from "quiet" and "churn".
	Scenarios []string
	// Reps repeats each cell with salt-spaced seeds; histograms merge.
	Reps int
	// DurationMs is the arrival horizon per rep, in virtual milliseconds.
	DurationMs float64
	// QPS is each tenant's open-loop arrival rate.
	QPS float64
	// SLOUs is the per-request latency SLO in microseconds.
	SLOUs float64
	// ValueBytes is the KV value size.
	ValueBytes uint64
	// Seed drives arrivals, key popularity, and churn dirtying.
	Seed int64
}

// servingSLOConfig resolves the serving grid: every mitigation kind, quiet
// then churn, serving 10 ms per rep at 150k QPS per tenant under a 100 µs
// SLO, two reps per cell; -quick trims to one rep and a 4 ms horizon.
func servingSLOConfig(f Flags) servingSLOParams {
	cfg := servingSLOParams{
		Kinds:      mitigation.Kinds(),
		Scenarios:  []string{"quiet", "churn"},
		Reps:       2,
		DurationMs: 10,
		QPS:        150_000,
		SLOUs:      100,
		ValueBytes: 1024,
		Seed:       f.seed(61),
	}
	if f.Quick {
		cfg.Reps = 1
		cfg.DurationMs = 4
	}
	cfg.Reps = override(f.Reps, cfg.Reps)
	return cfg
}

// servingChurnSchedule is the control-plane schedule every churn cell
// replays: shrink the first tenant, grow it back, live-migrate it
// cross-socket, then defragment its host. Times are fractions of the
// horizon so quick and default configs churn at the same relative points.
func servingChurnSchedule(durationNs float64) []serve.Event {
	return []serve.Event{
		{AtNs: 0.20 * durationNs, Kind: serve.EventResize, Tenant: "t0", TargetBytes: 32 * geometry.MiB},
		{AtNs: 0.45 * durationNs, Kind: serve.EventResize, Tenant: "t0", TargetBytes: 64 * geometry.MiB},
		{AtNs: 0.70 * durationNs, Kind: serve.EventMigrate, Tenant: "t0", DestSocket: 1, DirtyPages: 4},
		{AtNs: 0.85 * durationNs, Kind: serve.EventDefrag, Tenant: "t0", MaxMoves: 2},
	}
}

// runServingRep boots a host deploying one defense, creates the two
// tenants, and serves one rep.
func runServingRep(ctx context.Context, cfg servingSLOParams, kind mitigation.Kind, churn bool, seed int64) (*serve.Report, error) {
	lab := lifecycleLabConfig()
	lab.Mitigation = mitigation.Spec{Kind: kind, Seed: seed}
	h, err := core.BootMitigated(lab)
	if err != nil {
		return nil, err
	}
	defer h.Shutdown()
	for i, socket := range []int{0, 1} {
		_, err := h.CreateVM(core.KVMProcess(), core.VMSpec{
			Name: fmt.Sprintf("t%d", i), Socket: socket, MemoryBytes: 64 * geometry.MiB,
		})
		if err != nil {
			return nil, fmt.Errorf("tenant t%d: %w", i, err)
		}
	}
	durationNs := cfg.DurationMs * 1e6
	spec := lab.Mitigation
	scfg := serve.Config{
		Hypervisor: h,
		Tenants: []serve.TenantSpec{
			{VM: "t0", TargetQPS: cfg.QPS, ValueBytes: cfg.ValueBytes},
			{VM: "t1", TargetQPS: cfg.QPS, ValueBytes: cfg.ValueBytes},
		},
		DurationNs: durationNs,
		SLONs:      cfg.SLOUs * 1e3,
		Seed:       seed,
	}
	if spec.HasRowDefense() {
		banks := lab.Geometry.TotalBanks()
		scfg.Mitigation = func(_ string, socket int) mitigation.Mitigation {
			return rowDefense(spec, banks, mitigation.ScopeSeed(seed, socket))
		}
	}
	if churn {
		scfg.Churn = servingChurnSchedule(durationNs)
	}
	l, err := serve.New(scfg)
	if err != nil {
		return nil, err
	}
	return l.Run(ctx)
}

func servingSLOExp(ctx context.Context, pool *Pool, sc servingSLOParams) (*Result, error) {
	kinds := sc.Kinds
	// Cells are kind-major, then scenario, Reps per cell.
	type sloCell struct {
		kind     mitigation.Kind
		scenario string
	}
	cells := grid(kinds, sc.Scenarios, func(k mitigation.Kind, scenario string) sloCell { return sloCell{k, scenario} })
	reps, err := mapReps(ctx, pool, sc.Seed, cells, sc.Reps, func(c sloCell, seed int64) (*serve.Report, error) {
		rep, err := runServingRep(ctx, sc, c.kind, c.scenario == "churn", seed)
		if err != nil {
			return nil, fmt.Errorf("%v/%s seed %d: %w", c.kind, c.scenario, seed, err)
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate reps per (kind, scenario) in index order.
	type agg struct {
		hist *stats.Histogram
		// sum carries the cell's request, error and violation counts, so
		// its SLO-miss share is serve's own rule over the summed counts.
		sum         serve.Report
		qpsSum      float64
		reps        int
		worstWindow string
		worstP99    float64
		defragErrs  int
	}
	// aggs[si][ki] is scenario si under defense ki: a scenario's column of
	// the grid, in kinds order.
	aggs := make([][]*agg, len(sc.Scenarios))
	for ci := range cells {
		a := &agg{hist: stats.NewHistogram()}
		si := ci % len(sc.Scenarios)
		aggs[si] = append(aggs[si], a)
		for _, r := range reps[ci] {
			a.hist.Merge(r.Total)
			a.sum.Requests += r.Requests
			a.sum.Errors += r.Errors
			a.sum.Violations += r.Violations
			a.qpsSum += r.AchievedQPS()
			a.reps++
			for _, w := range r.Windows {
				if w.Err != "" {
					if w.Kind == serve.EventDefrag {
						a.defragErrs++
					}
					continue
				}
				if w.Hist.Count() == 0 {
					continue
				}
				if p := w.Hist.P99(); p > a.worstP99 {
					a.worstP99 = p
					a.worstWindow = w.Label
				}
			}
		}
	}

	res := &Result{
		Name: "serving-slo",
		Title: "Request-level serving under SLOs: p99 latency and SLO misses per defense, " +
			"quiet vs control-plane churn (resize + migrate + defrag mid-serving)",
		Columns: []string{
			"defense", "scenario", "requests", "achieved", "p50", "p99", "p99.9",
			"slo-miss", "worst window",
		},
		Units: []string{
			"", "", "", "qps", "us", "us", "us", "%", "",
		},
		Metadata: map[string]string{
			"geometry": migrationLabGeometry().String(),
			"seed":     fmt.Sprintf("%d", sc.Seed),
			"reps":     fmt.Sprintf("%d", sc.Reps),
			"qps":      fmt.Sprintf("%.0f per tenant, open loop", sc.QPS),
			"slo":      fmt.Sprintf("%.0f us", sc.SLOUs),
			"horizon":  fmt.Sprintf("%.1f ms virtual", sc.DurationMs),
		},
	}

	p99Series := make([]Series, len(sc.Scenarios))
	for si, s := range sc.Scenarios {
		p99Series[si] = Series{Name: "p99-" + s, Unit: "us"}
	}
	slug := func(k mitigation.Kind, scenario, name string) string {
		return "sslo_" + name + "_" + k.String() + "_" + scenario
	}
	for ki, k := range kinds {
		for si, scenario := range sc.Scenarios {
			a := aggs[si][ki]
			achieved := a.qpsSum / float64(a.reps)
			missPct := 100 * a.sum.ViolationFrac()
			worst := "-"
			if a.worstWindow != "" {
				worst = fmt.Sprintf("%s p99 %.0fus", a.worstWindow, a.worstP99/1e3)
			}
			res.row(k.String()+"/"+scenario, k.String(), scenario, a.sum.Requests, round3(achieved),
				round3(a.hist.P50()/1e3), round3(a.hist.P99()/1e3),
				round3(a.hist.P999()/1e3), round3(missPct), worst)
			res.scalar(slug(k, scenario, "p99_us"), round3(a.hist.P99()/1e3))
			res.scalar(slug(k, scenario, "p999_us"), round3(a.hist.P999()/1e3))
			res.scalar(slug(k, scenario, "miss_pct"), round3(missPct))
			res.scalar(slug(k, scenario, "qps"), round3(achieved))
			p99Series[si].Points = append(p99Series[si].Points,
				Point{Label: k.String(), Value: round3(a.hist.P99() / 1e3)})
		}
	}
	res.Series = append(res.Series, p99Series...)

	// Checks, for the scenarios and defenses this run selected.
	qi, ci := slices.Index(sc.Scenarios, "quiet"), slices.Index(sc.Scenarios, "churn")
	if qi >= 0 {
		quiet := aggs[qi]
		res.check("quiet_meets_slo", allCells(quiet, func(a *agg) bool { return a.sum.Violations == 0 }),
			fmt.Sprintf("every defense serves %.0f us p99 SLO with zero misses when the control plane is quiet", sc.SLOUs))
		res.check("quiet_error_free", allCells(quiet, func(a *agg) bool { return a.sum.Errors == 0 }),
			"no request failed on a quiet host")
		ni, si := slices.Index(kinds, mitigation.KindNone), slices.Index(kinds, mitigation.KindSiloz)
		if ni >= 0 && si >= 0 {
			base := quiet[ni].hist.P99()
			siloz := quiet[si].hist.P99()
			rel := siloz/base - 1
			res.check("siloz_tail_comparable", rel < 0.10 && rel > -0.10,
				fmt.Sprintf("siloz quiet p99 within ±10%% of baseline (%.2fus vs %.2fus): placement moves pages, not the tail",
					siloz/1e3, base/1e3))
		}
	}
	if ci >= 0 {
		spikes := true
		if qi >= 0 {
			for ki := range kinds {
				if aggs[ci][ki].hist.P999() <= aggs[qi][ki].hist.P999() {
					spikes = false
				}
			}
		}
		res.check("churn_spikes_tail", spikes,
			"churn p99.9 exceeds quiet p99.9 for every defense: blackout windows land in the tail")
		res.check("churn_causes_slo_misses", allCells(aggs[ci], func(a *agg) bool { return a.sum.Violations > 0 }),
			"every defense misses the SLO during churn windows — lifecycle events are where the SLO budget goes")
		defragOK := true
		for ki, k := range kinds {
			a := aggs[ci][ki]
			wantErrs := a.reps // one defrag event per rep
			if k == mitigation.KindSiloz {
				wantErrs = 0
			}
			if a.defragErrs != wantErrs {
				defragOK = false
			}
		}
		res.check("defrag_exclusive_to_siloz", defragOK,
			"defragmentation runs only on Siloz hosts; every other defense's host refuses it (recorded as a window error, not a failure)")
	}

	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d serving reps: two open-loop tenants at %.0f qps each on a two-socket host, %s-scenario churn "+
			"replaying resize→migrate→defrag mid-serving; downtime is modeled from copied bytes, so identical "+
			"configs emit identical tables at any parallelism",
		len(cells)*sc.Reps, sc.QPS, sc.Scenarios[len(sc.Scenarios)-1]))
	return res, nil
}

// Benchmarks regenerating the paper's tables and figures (§7). Each bench
// dispatches one experiment from the registry end to end and reports the
// headline quantity from the structured Result's scalars, so
// `go test -bench=. -benchmem` reproduces the whole evaluation. Scaled-down
// parameters keep a full sweep tractable; use `siloz bench` for paper-scale
// runs.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/experiments"
	"repro/internal/geometry"
)

// params resolves a registered experiment's -quick parameters.
func params[P any](b *testing.B, name string) P {
	b.Helper()
	e, ok := experiments.Get(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	return e.Resolve(experiments.Flags{Quick: true}).(P)
}

// benchSecurity uses a reduced geometry so each b.N iteration is cheap
// while keeping the full six-DIMM sweep.
func benchSecurity(b *testing.B) experiments.SecurityConfig {
	cfg := params[experiments.SecurityConfig](b, "table3")
	cfg.Geometry = geometry.Geometry{
		Sockets: 2, CoresPerSocket: 8, DIMMsPerSocket: 2, RanksPerDIMM: 2,
		BanksPerRank: 4, RowsPerBank: 4096, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
	cfg.Patterns = 30
	return cfg
}

func benchPerf(b *testing.B) experiments.PerfConfig {
	cfg := params[experiments.PerfConfig](b, "fig4")
	cfg.Ops = 20_000
	cfg.Reps = 3
	return cfg
}

// runExp dispatches one registered experiment with the given parameters
// (nil = its own -quick set), failing the benchmark if it errors or any of
// its self-checks fail.
func runExp(b *testing.B, name string, p any) *experiments.Result {
	b.Helper()
	e, ok := experiments.Get(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	if p == nil {
		p = e.Resolve(experiments.Flags{Quick: true})
	}
	r, err := e.Run(context.Background(), nil, p)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range r.Checks {
		if !c.Pass {
			b.Fatalf("%s: check %s failed: %s", name, c.Name, c.Detail)
		}
	}
	return r
}

// scalar reads a headline metric out of the Result.
func scalar(b *testing.B, r *experiments.Result, name string) float64 {
	b.Helper()
	v, err := r.Scalar(name)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkTable3Containment regenerates Table 3: Blacksmith pinned to a
// subarray group on DIMMs A-F; flips inside vs outside the group.
func BenchmarkTable3Containment(b *testing.B) {
	cfg := benchSecurity(b)
	var inside, outside float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i) + 7
		r := runExp(b, "table3", cfg)
		inside = scalar(b, r, "flips_inside")
		outside = scalar(b, r, "flips_outside")
	}
	b.ReportMetric(inside, "flips-inside")
	b.ReportMetric(outside, "flips-outside")
}

// BenchmarkEPTProtection regenerates the §7.1 EPT experiment.
func BenchmarkEPTProtection(b *testing.B) {
	cfg := benchSecurity(b)
	var prot, unprot float64
	for i := 0; i < b.N; i++ {
		r := runExp(b, "ept", cfg)
		prot = scalar(b, r, "protected_flips")
		unprot = scalar(b, r, "unprotected_flips")
	}
	b.ReportMetric(prot, "protected-flips")
	b.ReportMetric(unprot, "unprotected-flips")
}

// BenchmarkFig4ExecutionTime regenerates Figure 4.
func BenchmarkFig4ExecutionTime(b *testing.B) {
	cfg := benchPerf(b)
	var geomean float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i) + 1
		geomean = scalar(b, runExp(b, "fig4", cfg), "geomean_overhead_pct")
	}
	b.ReportMetric(geomean, "geomean-overhead-%")
}

// BenchmarkFig5Throughput regenerates Figure 5.
func BenchmarkFig5Throughput(b *testing.B) {
	cfg := benchPerf(b)
	var geomean float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i) + 1
		geomean = scalar(b, runExp(b, "fig5", cfg), "geomean_overhead_pct")
	}
	b.ReportMetric(geomean, "geomean-overhead-%")
}

// BenchmarkFig67SizeSensitivity regenerates Figures 6 and 7 (execution time
// and throughput for Siloz-512/-2048 vs Siloz-1024).
func BenchmarkFig67SizeSensitivity(b *testing.B) {
	cfg := benchPerf(b)
	var t512, t2048, p512, p2048 float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i) + 1
		r := runExp(b, "fig67", cfg)
		t512 = scalar(b, r, "fig6-siloz512_geomean_pct")
		t2048 = scalar(b, r, "fig6-siloz2048_geomean_pct")
		p512 = scalar(b, r, "fig7-siloz512_geomean_pct")
		p2048 = scalar(b, r, "fig7-siloz2048_geomean_pct")
	}
	b.ReportMetric(t512, "time-siloz512-overhead-%")
	b.ReportMetric(t2048, "time-siloz2048-overhead-%")
	b.ReportMetric(p512, "tput-siloz512-overhead-%")
	b.ReportMetric(p2048, "tput-siloz2048-overhead-%")
}

// BenchmarkBankLevelParallelism regenerates the §4.1 ablation.
func BenchmarkBankLevelParallelism(b *testing.B) {
	cfg := benchPerf(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = scalar(b, runExp(b, "blp", cfg), "blp_benefit_pct")
	}
	b.ReportMetric(speedup, "blp-benefit-%")
}

// BenchmarkGuardRowOverhead regenerates the §3/§5.4 reservation accounting.
func BenchmarkGuardRowOverhead(b *testing.B) {
	cfg := benchPerf(b)
	var siloz float64
	for i := 0; i < b.N; i++ {
		siloz = scalar(b, runExp(b, "overhead", cfg), "siloz_ept_reserved_pct")
	}
	b.ReportMetric(siloz, "siloz-reserved-%")
}

// BenchmarkSoftwareRefresh regenerates the §8.3 deadline experiment.
func BenchmarkSoftwareRefresh(b *testing.B) {
	var taskMiss, tickMiss float64
	for i := 0; i < b.N; i++ {
		r := runExp(b, "softrefresh", nil)
		taskMiss = scalar(b, r, "task_miss_rate")
		tickMiss = scalar(b, r, "tick_miss_rate")
	}
	b.ReportMetric(100*taskMiss, "task-miss-%")
	b.ReportMetric(100*tickMiss, "tick-miss-%")
}

// BenchmarkRemapHandling regenerates the §6 sweep.
func BenchmarkRemapHandling(b *testing.B) {
	var maxReserved float64
	for i := 0; i < b.N; i++ {
		maxReserved = scalar(b, runExp(b, "remaps", nil), "max_reserved_pct")
	}
	b.ReportMetric(maxReserved, "max-reserved-%")
}

// BenchmarkGiBPages regenerates the §4.2 1 GiB page analysis.
func BenchmarkGiBPages(b *testing.B) {
	cfg := benchPerf(b)
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = scalar(b, runExp(b, "gbpages", cfg), "single_set_fraction")
	}
	b.ReportMetric(100*frac, "single-set-%")
}

// BenchmarkECCStudy regenerates the §2.5/§3 ECC analysis.
func BenchmarkECCStudy(b *testing.B) {
	var corrected, uncorrectable float64
	for i := 0; i < b.N; i++ {
		r := runExp(b, "ecc", nil)
		corrected = scalar(b, r, "words_corrected")
		uncorrectable = scalar(b, r, "words_uncorrectable")
	}
	b.ReportMetric(corrected, "corrected-words")
	b.ReportMetric(uncorrectable, "uncorrectable-words")
}

// BenchmarkFragmentation regenerates the §8.1 provisioning-waste study.
func BenchmarkFragmentation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = scalar(b, runExp(b, "fragmentation", nil), "worst_waste_pct")
	}
	b.ReportMetric(worst, "worst-waste-%")
}

// BenchmarkDDR5Comparison regenerates the §8.2 DDR4-vs-DDR5 sweep.
func BenchmarkDDR5Comparison(b *testing.B) {
	var ddr4Max float64
	for i := 0; i < b.N; i++ {
		ddr4Max = scalar(b, runExp(b, "ddr5", nil), "ddr4_max_reserved_pct")
	}
	b.ReportMetric(ddr4Max, "ddr4-max-reserved-%")
}

// BenchmarkDRAMAStudy regenerates the §8.4 timing-side-channel study.
func BenchmarkDRAMAStudy(b *testing.B) {
	var sharedSignal, partSignal float64
	for i := 0; i < b.N; i++ {
		r := runExp(b, "drama", nil)
		sharedSignal = scalar(b, r, "shared_signal_pct")
		partSignal = scalar(b, r, "partitioned_signal_pct")
	}
	b.ReportMetric(sharedSignal, "shared-signal-%")
	b.ReportMetric(partSignal, "partitioned-signal-%")
}

// BenchmarkActivationRates regenerates the §1 activation-rate study.
func BenchmarkActivationRates(b *testing.B) {
	var hammerPeak float64
	for i := 0; i < b.N; i++ {
		hammerPeak = scalar(b, runExp(b, "actrates", nil), "hammer_peak_acts")
	}
	b.ReportMetric(hammerPeak, "hammer-peak-acts")
}

// BenchmarkZebRAMComparison regenerates the §3 executable guard-row
// comparison.
func BenchmarkZebRAMComparison(b *testing.B) {
	var silozOverhead float64
	for i := 0; i < b.N; i++ {
		silozOverhead = scalar(b, runExp(b, "zebram", nil), "siloz_overhead_pct")
	}
	b.ReportMetric(silozOverhead, "siloz-overhead-%")
}

// BenchmarkSecuritySweep runs the whole §7.1 security battery — Table 3
// containment, EPT protection, and activation rates — end to end per
// iteration. This is the registry-level trajectory number the sharded
// campaign driver and the memctrl/addr hot-path rewrites are measured by.
func BenchmarkSecuritySweep(b *testing.B) {
	cfg := benchSecurity(b)
	var outside float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i) + 7
		outside = scalar(b, runExp(b, "table3", cfg), "flips_outside")
		runExp(b, "ept", cfg)
		runExp(b, "actrates", nil)
	}
	b.ReportMetric(outside, "flips-outside")
}

package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

// actRatesConfig resolves the activation-rate study's parameters: the
// performance set, with the op count floored at what the hammer stream
// needs to reach real thresholds within one refresh window.
func actRatesConfig(f Flags) PerfConfig {
	cfg := perfConfig(f)
	if cfg.Ops < 250_000 {
		cfg.Ops = 250_000
	}
	return cfg
}

// actRatesExp is the "actrates" experiment: each workload's peak per-row
// activation rate within a 64 ms refresh window — the quantity Rowhammer
// thresholds are defined over — for commodity workloads and for a dedicated
// hammering stream, on the evaluation server, beside the evaluation DIMMs
// whose thresholds the peak beats. The paper's motivation (§1, citing [98])
// is that both malicious and commodity access streams can exceed modern
// thresholds, so thresholds cannot be outrun: isolation is required.
func actRatesExp(ctx context.Context, pool *Pool, cfg PerfConfig) (*Result, error) {
	return onPool(ctx, pool, func() (*Result, error) {
		vm, err := bootBenchVM(cfg, core.ModeSiloz, 0)
		if err != nil {
			return nil, err
		}
		r := &Result{
			Name:    "actrates",
			Title:   "Peak per-row activations per 64 ms window (§1, §2.5)",
			Columns: []string{"peak ACTs", "exceeds DIMMs"},
		}
		exceeds := func(peak int) []string {
			var out []string
			for _, p := range dram.EvaluationProfiles() {
				if float64(peak) >= p.HammerThreshold {
					out = append(out, p.Name)
				}
			}
			return out
		}
		// run measures one stream, records its row and returns its peak.
		run := func(w workload.Workload) (int, error) {
			ctrl, err := memctrl.New(memctrl.Config{
				Mapper:           vm.Hypervisor().Memory().Mapper(),
				Timing:           memctrl.DDR4_2933(),
				MLPWindow:        cfg.MLPWindow,
				TrackActivations: true,
			})
			if err != nil {
				return 0, err
			}
			res, err := workload.RunOnVM(vm, ctrl, nil, w, cfg.Ops, cfg.Seed)
			if err != nil {
				return 0, err
			}
			ex := strings.Join(exceeds(res.PeakRowACTs), ",")
			if ex == "" {
				ex = "-"
			}
			r.row(w.Name(), res.PeakRowACTs, ex)
			return res.PeakRowACTs, nil
		}

		commodity := []workload.Workload{
			workload.YCSB{Letter: 'a'},
			workload.Memcached{},
			workload.MLC{Mode: "stream"},
			workload.Terasort{},
		}
		for _, w := range commodity {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if _, err := run(w); err != nil {
				return nil, err
			}
		}
		// A deliberate hammering stream: alternate two rows of one bank as
		// fast as the DRAM allows (no cache, single victim pair).
		peak, err := run(hammerStream{})
		if err != nil {
			return nil, err
		}
		r.scalar("hammer_peak_acts", float64(peak))
		r.check("hammer_exceeds_all_dimms",
			len(exceeds(peak)) == len(dram.EvaluationProfiles()),
			fmt.Sprintf("hammer-pair peaks at %d ACTs/window", peak))
		var th []string
		for _, p := range dram.EvaluationProfiles() {
			th = append(th, fmt.Sprintf("%s=%0.f", p.Name, p.HammerThreshold))
		}
		r.Notes = append(r.Notes, "thresholds: "+strings.Join(th, " "))
		return r, nil
	})
}

// hammerStream is the malicious reference stream: a two-row bank ping-pong.
type hammerStream struct{}

// Name implements workload.Workload.
func (hammerStream) Name() string { return "hammer-pair" }

// BypassesCache marks the stream as cache-defeating (as real attacks are).
func (hammerStream) BypassesCache() bool { return true }

// Generate implements workload.Workload.
func (hammerStream) Generate(region uint64, ops int, _ int64, emit func(workload.Access) bool) {
	// Two addresses one row apart in the same bank: offset 0 and one
	// full row group ahead (dependent on geometry; 1.5 MiB on the
	// evaluation server — recomputed by the emitter's decode, but the
	// stride only needs to revisit the same bank at a different row).
	const rowStride = 192 * 64 * 128 // banks * line * linesPerRow
	for i := 0; i < ops; i++ {
		off := uint64(0)
		if i%2 == 1 {
			off = rowStride
		}
		if !emit(workload.Access{Offset: off % region}) {
			return
		}
	}
}

package experiments

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/memctrl"
	"repro/internal/subarray"
)

// blpExp is the "blp" experiment: the §4.1 bank-level parallelism ablation.
// Subarray groups preserve bank-level parallelism, whereas isolating a VM to
// a single bank (the naive alternative) destroys it: the same stream runs
// over both mappings and the completion times are compared.
func blpExp(ctx context.Context, pool *Pool, cfg PerfConfig) (*Result, error) {
	run := func(kind addr.Kind) (float64, error) {
		mapper, err := addr.NewMapper(cfg.Geometry, kind)
		if err != nil {
			return 0, err
		}
		ctrl, err := memctrl.New(memctrl.Config{
			Mapper: mapper, Timing: memctrl.DDR4_2933(), MLPWindow: 10,
		})
		if err != nil {
			return 0, err
		}
		for i := 0; i < 200_000; i++ {
			if i%8192 == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			if _, err := ctrl.Do(memctrl.Access{PA: uint64(i) * geometry.CacheLineSize}); err != nil {
				return 0, err
			}
		}
		return ctrl.Result().TotalNs, nil
	}
	return onPool(ctx, pool, func() (*Result, error) {
		interleavedNs, err := run(addr.KindSkylake)
		if err != nil {
			return nil, err
		}
		serialNs, err := run(addr.KindLinear)
		if err != nil {
			return nil, err
		}
		speedupPct := 100 * (serialNs/interleavedNs - 1)
		r := &Result{Name: "blp", Title: "Bank-level parallelism ablation (§4.1)"}
		r.scalar("interleaved_ms", interleavedNs/1e6)
		r.scalar("single_bank_ms", serialNs/1e6)
		r.scalar("blp_benefit_pct", speedupPct)
		r.check("blp_above_18pct", speedupPct > 18,
			fmt.Sprintf("interleaving is %.1f%% faster; paper cites >18%%", speedupPct))
		return r, nil
	})
}

// overheadExp is the "overhead" experiment: the paper's §3/§5.4 accounting
// of DRAM reserved for protection — guard-row schemes (ZebRAM at 1 and 4
// guard rows per protected row) versus Siloz's EPT block and worst-case
// artificial-group reservations.
func overheadExp(ctx context.Context, _ *Pool, cfg PerfConfig) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := cfg.Geometry
	eptPct := 100 * float64(core.EPTBlockRowGroups) * float64(g.RowBytes) / float64(g.BankBytes())
	r := &Result{
		Name:    "overhead",
		Title:   "DRAM reserved for protection (§3, §5.4)",
		Columns: []string{"reserved", "scope"},
		Units:   []string{"%", ""},
	}
	r.row("ZebRAM (1 guard/row)", 50.0, "entire protected region")
	r.row("ZebRAM (4 guards/row, modern)", 80.0, "entire protected region")
	r.row("Siloz EPT block (b=32)", eptPct, "whole DRAM")
	r.row("Siloz artificial groups (512-row)", 100*8.0/512, "non-power-of-2 DIMMs only")
	r.row("Siloz artificial groups (2048-row)", 100*8.0/2048, "non-power-of-2 DIMMs only")
	r.row("Siloz power-of-2 subarrays", eptPct, "whole DRAM (EPT block only)")
	r.scalar("siloz_ept_reserved_pct", eptPct)
	return r, nil
}

// softRefreshExp is the "softrefresh" experiment: the §8.3 engineering
// experiment that led Siloz to guard rows instead of software refresh.
func softRefreshExp(ctx context.Context, pool *Pool) (*Result, error) {
	return onPool(ctx, pool, func() (*Result, error) {
		task := ept.SimulateSoftRefresh(ept.DefaultSoftRefreshConfig(ept.TaskScheduled))
		tick := ept.SimulateSoftRefresh(ept.DefaultSoftRefreshConfig(ept.TickInterrupt))
		r := &Result{
			Name:    "softrefresh",
			Title:   "Software refresh deadlines (§8.3)",
			Columns: []string{"summary"},
		}
		r.row("task-scheduled", task.String())
		r.row("tick-interrupt", tick.String())
		r.scalar("task_miss_rate", task.MissRate())
		r.scalar("tick_miss_rate", tick.MissRate())
		r.check("deadlines_missed", task.MissedDeadlines > 0 && tick.MissedDeadlines > 0,
			"neither model meets 1 ms deadlines reliably")
		r.Notes = append(r.Notes, "conclusion: software refresh cannot meet 1 ms deadlines; Siloz uses guard rows instead")
		return r, nil
	})
}

// remapsExp is the "remaps" experiment: §6 media-to-internal remap handling.
// It sweeps true subarray sizes over a geometry whose bank size accommodates
// them, reporting per size whether artificial groups are needed, the managed
// group size after rounding, and the DRAM share offlined for boundary guards.
// Power-of-two commodity sizes need nothing; others form artificial groups
// with guard rows.
func remapsExp(ctx context.Context, pool *Pool) (*Result, error) {
	return onPool(ctx, pool, func() (*Result, error) {
		r := &Result{
			Name:    "remaps",
			Title:   "Media-to-internal remap handling (§6)",
			Columns: []string{"artificial", "managed rows", "reserved"},
			Units:   []string{"", "", "%"},
		}
		maxReserved := 0.0
		for _, rows := range subarraySweepSizes {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			g, mapper, err := subarraySweepBox(rows)
			if err != nil {
				return nil, err
			}
			layout, err := subarray.NewLayout(g, mapper, addr.AllTransforms())
			if err != nil {
				return nil, fmt.Errorf("size %d: %w", rows, err)
			}
			guards := layout.BoundaryGuardRows()
			reservedPct := 100 * float64(len(guards)) / float64(g.RowsPerBank)
			r.row(fmt.Sprintf("%d-row subarrays", rows), layout.Artificial(), layout.RowsPerGroup(), reservedPct)
			maxReserved = max(maxReserved, reservedPct)
		}
		r.scalar("max_reserved_pct", maxReserved)
		return r, nil
	})
}

// subarraySweepSizes are the subarray sizes the §6 and §8.2 sweeps cover:
// the commodity powers of two and the non-power-of-two sizes between them.
var subarraySweepSizes = []int{512, 640, 768, 1024, 1280, 2048}

// subarraySweepBox builds a single-socket geometry with the given true
// subarray size, and its mapper. The bank must be a multiple of both the
// size and its power-of-two round-up, and hold at least four managed groups.
func subarraySweepBox(rows int) (geometry.Geometry, addr.Mapper, error) {
	g := geometry.Geometry{
		Sockets: 1, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 8, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: rows,
	}
	lcm := rows * nextPow2(rows) / gcd(rows, nextPow2(rows))
	g.RowsPerBank = lcm
	for g.RowsPerBank < 4*nextPow2(rows) {
		g.RowsPerBank += lcm
	}
	mapper, err := addr.NewMapper(g, addr.KindSkylake)
	if err != nil {
		return g, nil, fmt.Errorf("size %d: %w", rows, err)
	}
	return g, mapper, nil
}

func nextPow2(n int) int { return 1 << bits.Len(uint(n-1)) }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// gbPagesExp is the "gbpages" experiment: the §4.2 1 GiB page analysis. It
// scans every 1 GiB physical range of the geometry for the share that maps
// into a single 3 GiB set of consecutive subarray groups.
func gbPagesExp(ctx context.Context, pool *Pool, cfg PerfConfig) (*Result, error) {
	return onPool(ctx, pool, func() (*Result, error) {
		g := cfg.Geometry
		m, err := addr.NewSkylakeMapper(g)
		if err != nil {
			return nil, err
		}
		const setBytes = 3 * geometry.GiB
		nPages := g.TotalBytes() / geometry.PageSize1G
		single := 0
		for p := int64(0); p < nPages; p++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			base := uint64(p * geometry.PageSize1G)
			lo, hi := int64(1)<<62, int64(-1)
			for off := int64(0); off < geometry.PageSize1G; off += m.ChunkBytes() {
				end := off + m.ChunkBytes()
				if end > geometry.PageSize1G {
					end = geometry.PageSize1G
				}
				for _, o := range []uint64{uint64(off), uint64(end) - geometry.CacheLineSize} {
					ma, err := m.Decode(base + o)
					if err != nil {
						return nil, err
					}
					mo := int64(ma.Row) * g.RowGroupBytes()
					if mo < lo {
						lo = mo
					}
					if mo > hi {
						hi = mo
					}
				}
			}
			if lo/setBytes == hi/setBytes {
				single++
			}
		}
		fraction := float64(single) / float64(nPages)
		r := &Result{Name: "gbpages", Title: "1 GiB page analysis (§4.2)"}
		r.scalar("single_set_fraction", fraction)
		r.check("at_least_one_third", fraction >= 1.0/3,
			fmt.Sprintf("%.1f%% of 1 GiB ranges map to a single 3 GiB group set; paper: at least 1/3", 100*fraction))
		return r, nil
	})
}

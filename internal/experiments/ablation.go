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

// BLPResult quantifies the §4.1 design point: subarray groups preserve
// bank-level parallelism, whereas isolating a VM to a single bank (the
// naive alternative) destroys it.
type BLPResult struct {
	// InterleavedNs and SerialNs are stream completion times.
	InterleavedNs, SerialNs float64
	// SpeedupPct is how much faster the interleaved mapping is.
	SpeedupPct float64
}

// BankLevelParallelism streams over both mappings.
func BankLevelParallelism(ctx context.Context, g geometry.Geometry, ops int) (BLPResult, error) {
	var out BLPResult
	run := func(mapper addr.Mapper) (float64, error) {
		ctrl, err := memctrl.New(memctrl.Config{
			Mapper: mapper, Timing: memctrl.DDR4_2933(), MLPWindow: 10,
		})
		if err != nil {
			return 0, err
		}
		for i := 0; i < ops; i++ {
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
	sky, err := addr.NewMapper(g, addr.KindSkylake)
	if err != nil {
		return out, err
	}
	lin, err := addr.NewMapper(g, addr.KindLinear)
	if err != nil {
		return out, err
	}
	if out.InterleavedNs, err = run(sky); err != nil {
		return out, err
	}
	if out.SerialNs, err = run(lin); err != nil {
		return out, err
	}
	out.SpeedupPct = 100 * (out.SerialNs/out.InterleavedNs - 1)
	return out, nil
}

// blpExp is the "blp" experiment: the §4.1 bank-level parallelism ablation.
func blpExp(ctx context.Context, pool *Pool, cfg PerfConfig) (*Result, error) {
	res, err := onPool(ctx, pool, func() (BLPResult, error) {
		return BankLevelParallelism(ctx, cfg.Geometry, 200_000)
	})
	if err != nil {
		return nil, err
	}
	r := &Result{Name: "blp", Title: "Bank-level parallelism ablation (§4.1)"}
	r.scalar("interleaved_ms", res.InterleavedNs/1e6)
	r.scalar("single_bank_ms", res.SerialNs/1e6)
	r.scalar("blp_benefit_pct", res.SpeedupPct)
	r.check("blp_above_18pct", res.SpeedupPct > 18,
		fmt.Sprintf("interleaving is %.1f%% faster; paper cites >18%%", res.SpeedupPct))
	return r, nil
}

// OverheadRow is one row of the §3/§5.4 DRAM-reservation comparison.
type OverheadRow struct {
	Scheme      string
	ReservedPct float64
	Scope       string
}

// OverheadComparison reproduces the paper's accounting: guard-row schemes
// (ZebRAM at 1 and 4 guard rows per protected row) versus Siloz's EPT block
// and worst-case artificial-group reservations.
func OverheadComparison(g geometry.Geometry) []OverheadRow {
	rowGroups := float64(core.EPTBlockRowGroups)
	eptPct := 100 * rowGroups * float64(g.RowBytes) / float64(g.BankBytes())
	return []OverheadRow{
		{Scheme: "ZebRAM (1 guard/row)", ReservedPct: 50, Scope: "entire protected region"},
		{Scheme: "ZebRAM (4 guards/row, modern)", ReservedPct: 80, Scope: "entire protected region"},
		{Scheme: "Siloz EPT block (b=32)", ReservedPct: eptPct, Scope: "whole DRAM"},
		{Scheme: "Siloz artificial groups (512-row)", ReservedPct: 100 * 8.0 / 512, Scope: "non-power-of-2 DIMMs only"},
		{Scheme: "Siloz artificial groups (2048-row)", ReservedPct: 100 * 8.0 / 2048, Scope: "non-power-of-2 DIMMs only"},
		{Scheme: "Siloz power-of-2 subarrays", ReservedPct: eptPct, Scope: "whole DRAM (EPT block only)"},
	}
}

// overheadExp is the "overhead" experiment: DRAM reserved for protection.
func overheadExp(ctx context.Context, _ *Pool, cfg PerfConfig) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &Result{
		Name:    "overhead",
		Title:   "DRAM reserved for protection (§3, §5.4)",
		Columns: []string{"reserved", "scope"},
		Units:   []string{"%", ""},
	}
	for _, row := range OverheadComparison(cfg.Geometry) {
		r.row(row.Scheme, row.ReservedPct, row.Scope)
		if row.Scheme == "Siloz EPT block (b=32)" {
			r.scalar("siloz_ept_reserved_pct", row.ReservedPct)
		}
	}
	return r, nil
}

// SoftRefreshComparison reruns the §8.3 engineering experiment that led
// Siloz to guard rows instead of software refresh.
func SoftRefreshComparison() (task, tick ept.SoftRefreshReport) {
	task = ept.SimulateSoftRefresh(ept.DefaultSoftRefreshConfig(ept.TaskScheduled))
	tick = ept.SimulateSoftRefresh(ept.DefaultSoftRefreshConfig(ept.TickInterrupt))
	return task, tick
}

// softRefreshExp is the "softrefresh" experiment: §8.3 refresh deadlines.
func softRefreshExp(ctx context.Context, pool *Pool) (*Result, error) {
	var task, tick ept.SoftRefreshReport
	err := pool.Run(ctx, func() error {
		task, tick = SoftRefreshComparison()
		return nil
	})
	if err != nil {
		return nil, err
	}
	r := &Result{
		Name:    "softrefresh",
		Title:   "Software refresh deadlines (§8.3)",
		Columns: []string{"summary"},
	}
	r.Rows = append(r.Rows,
		Row{Label: "task-scheduled", Cells: []any{task.String()}},
		Row{Label: "tick-interrupt", Cells: []any{tick.String()}},
	)
	r.scalar("task_miss_rate", task.MissRate())
	r.scalar("tick_miss_rate", tick.MissRate())
	r.check("deadlines_missed", task.MissedDeadlines > 0 && tick.MissedDeadlines > 0,
		"neither model meets 1 ms deadlines reliably")
	r.Notes = append(r.Notes, "conclusion: software refresh cannot meet 1 ms deadlines; Siloz uses guard rows instead")
	return r, nil
}

// RemapRow summarizes §6 handling for one subarray size.
type RemapRow struct {
	// SubarrayRows is the true subarray size.
	SubarrayRows int
	// Artificial reports whether artificial groups are needed.
	Artificial bool
	// ManagedRows is the managed group size after rounding.
	ManagedRows int
	// ReservedPct is the DRAM share offlined for boundary guards.
	ReservedPct float64
}

// RemapHandling sweeps subarray sizes over a geometry whose bank size
// accommodates them, reporting the §6 reservations. Power-of-two commodity
// sizes need nothing; others form artificial groups with guard rows.
func RemapHandling(ctx context.Context) ([]RemapRow, error) {
	var out []RemapRow
	for _, rows := range subarraySweepSizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g, mapper, err := subarraySweepBox(rows)
		if err != nil {
			return nil, err
		}
		layout, err := subarray.NewLayout(g, mapper)
		if err != nil {
			return nil, fmt.Errorf("size %d: %w", rows, err)
		}
		guards := layout.BoundaryGuardRows(addr.AllTransforms())
		out = append(out, RemapRow{
			SubarrayRows: rows,
			Artificial:   layout.Artificial(),
			ManagedRows:  layout.RowsPerGroup(),
			ReservedPct:  100 * float64(len(guards)) / float64(g.RowsPerBank),
		})
	}
	return out, nil
}

// remapsExp is the "remaps" experiment: §6 media-to-internal remap handling.
func remapsExp(ctx context.Context, pool *Pool) (*Result, error) {
	rows, err := onPool(ctx, pool, func() ([]RemapRow, error) { return RemapHandling(ctx) })
	if err != nil {
		return nil, err
	}
	r := &Result{
		Name:    "remaps",
		Title:   "Media-to-internal remap handling (§6)",
		Columns: []string{"artificial", "managed rows", "reserved"},
		Units:   []string{"", "", "%"},
	}
	maxReserved := 0.0
	for _, row := range rows {
		r.row(fmt.Sprintf("%d-row subarrays", row.SubarrayRows), row.Artificial, row.ManagedRows, row.ReservedPct)
		if row.ReservedPct > maxReserved {
			maxReserved = row.ReservedPct
		}
	}
	r.scalar("max_reserved_pct", maxReserved)
	return r, nil
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

// GiBPageResult reproduces the §4.2 1 GiB page analysis.
type GiBPageResult struct {
	// SingleSetFraction is the share of 1 GiB physical ranges mapping
	// into a single 3 GiB set of consecutive subarray groups.
	SingleSetFraction float64
}

// GiBPages scans every 1 GiB physical range of the geometry.
func GiBPages(ctx context.Context, g geometry.Geometry) (GiBPageResult, error) {
	var out GiBPageResult
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		return out, err
	}
	const setBytes = 3 * geometry.GiB
	nPages := g.TotalBytes() / geometry.PageSize1G
	single := 0
	for p := int64(0); p < nPages; p++ {
		if err := ctx.Err(); err != nil {
			return out, err
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
					return out, err
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
	out.SingleSetFraction = float64(single) / float64(nPages)
	return out, nil
}

// gbPagesExp is the "gbpages" experiment: the §4.2 1 GiB page analysis.
func gbPagesExp(ctx context.Context, pool *Pool, cfg PerfConfig) (*Result, error) {
	res, err := onPool(ctx, pool, func() (GiBPageResult, error) { return GiBPages(ctx, cfg.Geometry) })
	if err != nil {
		return nil, err
	}
	r := &Result{Name: "gbpages", Title: "1 GiB page analysis (§4.2)"}
	r.scalar("single_set_fraction", res.SingleSetFraction)
	r.check("at_least_one_third", res.SingleSetFraction >= 1.0/3,
		fmt.Sprintf("%.1f%% of 1 GiB ranges map to a single 3 GiB group set; paper: at least 1/3", 100*res.SingleSetFraction))
	return r, nil
}

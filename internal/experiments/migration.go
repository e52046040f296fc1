package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/migrate"
)

// migrationParams parameterizes the "migration" experiment: live pre-copy
// cost (rounds, pages copied, stop-and-copy downtime) as a function of VM
// size and guest write rate, under Siloz domains and under the baseline, on
// the lab box.
type migrationParams struct {
	// VMSizes are the guest RAM sizes swept.
	VMSizes []uint64
	// WriteRates are guest write intensities: 2 MiB pages dirtied per
	// pre-copy round.
	WriteRates []int
	// CopyGiBps is the modeled page-copy bandwidth. Downtime is reported
	// as stop-and-copy bytes divided by this figure — a pure function of
	// the copied byte count, never a wall-clock measurement, so results
	// are bit-for-bit reproducible.
	CopyGiBps float64
	// Seed drives the guest's page-dirtying pattern.
	Seed int64
}

// migrationConfig resolves the sweep: one- and two-node VMs across idle,
// moderate, and write-heavy guests, trimmed under -quick.
func migrationConfig(f Flags) migrationParams {
	cfg := migrationParams{
		VMSizes:    []uint64{64 * geometry.MiB, 128 * geometry.MiB},
		WriteRates: []int{0, 4, 12},
		CopyGiBps:  12,
		Seed:       f.seed(11),
	}
	if f.Quick {
		cfg.VMSizes = []uint64{64 * geometry.MiB}
		cfg.WriteRates = []int{0, 4}
	}
	return cfg
}

// migrationRun is one cell of the sweep.
type migrationRun struct {
	mode    core.Mode
	vmBytes uint64
	rate    int
}

// migrationRowResult is one completed run, index-addressed for the pool.
type migrationRowResult struct {
	run       migrationRun
	rep       *core.MigrateReport
	intact    bool
	auditErr  error
	ramPages  int
	downtimeM float64 // modeled stop-and-copy milliseconds
}

func (r migrationRun) label() string {
	mode := "baseline"
	if r.mode == core.ModeSiloz {
		mode = "siloz"
	}
	return fmt.Sprintf("%s %dMiB rate=%d", mode, r.vmBytes/geometry.MiB, r.rate)
}

// runMigration boots a fresh system, fills a VM with a deterministic
// pattern, migrates it cross-socket while the guest dirties `rate` pages
// per round, and verifies byte identity afterwards.
func runMigration(ctx context.Context, cfg migrationParams, run migrationRun, seed int64) (*migrationRowResult, error) {
	h, err := bootLab(migrationLabGeometry(), migrationLabProfile(), ept.GuardRows, run.mode)
	if err != nil {
		return nil, err
	}
	vm, err := h.CreateVM(core.KVMProcess(), core.VMSpec{Name: "mig", Socket: 0, MemoryBytes: run.vmBytes})
	if err != nil {
		return nil, err
	}
	pages := int(run.vmBytes / geometry.PageSize2M)
	rng := rand.New(rand.NewSource(seed))

	// The guest's view of its own memory: the first 4 KiB of every page it
	// has written, for the byte-identity check after landing.
	const chunk = 4 * geometry.KiB
	mirror := make([][]byte, pages)
	writePage := func(p int, version byte) error {
		buf := make([]byte, chunk)
		for i := range buf {
			buf[i] = byte(i)*3 + version | 1
		}
		if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, buf); err != nil {
			return err
		}
		mirror[p] = buf
		return nil
	}
	// Pre-populate half the pages so zero-skip has work on the other half.
	for p := 0; p < pages; p += 2 {
		if err := writePage(p, byte(rng.Intn(200))); err != nil {
			return nil, err
		}
	}

	dests, err := h.FreeNodes(1, run.vmBytes)
	if err != nil {
		return nil, err
	}
	opt := core.MigrateOptions{
		MaxRounds: 16,
		StopPages: 8,
		GuestStep: func(round int) error {
			for i := 0; i < run.rate; i++ {
				if err := writePage(rng.Intn(pages), byte(round*31+i)); err != nil {
					return err
				}
			}
			return nil
		},
	}
	rep, err := h.MigrateVM(ctx, "mig", dests, opt)
	if err != nil {
		return nil, err
	}

	res := &migrationRowResult{run: run, rep: rep, ramPages: pages, intact: true}
	res.downtimeM = modeledMs(rep.DowntimeBytes, cfg.CopyGiBps)
	zero := make([]byte, chunk)
	for p := 0; p < pages && res.intact; p++ {
		want := mirror[p]
		if want == nil {
			want = zero
		}
		if res.intact, err = guestHolds(vm, uint64(p)*geometry.PageSize2M, want); err != nil {
			return nil, err
		}
	}
	if run.mode == core.ModeSiloz {
		res.auditErr = migrate.AuditIsolation(h)
	}
	return res, nil
}

// migrationExp is the "migration" experiment: live pre-copy cost vs. VM
// size and guest write rate, Siloz vs. baseline.
func migrationExp(ctx context.Context, pool *Pool, mc migrationParams) (*Result, error) {
	sizeRates := grid(mc.VMSizes, mc.WriteRates, func(size uint64, rate int) migrationRun {
		return migrationRun{vmBytes: size, rate: rate}
	})
	runs := grid([]core.Mode{core.ModeSiloz, core.ModeBaseline}, sizeRates, func(mode core.Mode, run migrationRun) migrationRun {
		run.mode = mode
		return run
	})
	results, err := mapCells(ctx, pool, mc.Seed, runs, func(run migrationRun, seed int64) (*migrationRowResult, error) {
		return runMigration(ctx, mc, run, seed)
	})
	if err != nil {
		return nil, err
	}

	r := &Result{
		Name:    "migration",
		Title:   "Live pre-copy migration cost vs. guest write rate",
		Columns: []string{"rounds", "copied", "amplification", "downtime", "modeled downtime", "converged"},
		Units:   []string{"", "pages", "x", "pages", "ms", ""},
		Metadata: map[string]string{
			"downtime_model": fmt.Sprintf("stop-and-copy bytes / %.0f GiB/s", mc.CopyGiBps),
		},
	}
	maxDowntime, totalCopied := 0, 0
	for _, res := range results {
		rep := res.rep
		amp := float64(rep.PagesCopied) / float64(res.ramPages)
		r.row(res.run.label(), len(rep.Rounds), rep.PagesCopied, amp, rep.DowntimePages, res.downtimeM, rep.Converged)
		maxDowntime = max(maxDowntime, rep.DowntimePages)
		totalCopied += rep.PagesCopied
	}
	r.scalar("max_downtime_pages", float64(maxDowntime))
	r.scalar("total_pages_copied", float64(totalCopied))
	r.check("memory_intact", allCells(results, func(c *migrationRowResult) bool { return c.intact }),
		"guest bytes identical across migration, including writes made mid-flight")
	idleClean := func(c *migrationRowResult) bool {
		return c.run.rate != 0 || c.rep.Converged && c.rep.DowntimePages == 0
	}
	r.check("idle_zero_downtime", allCells(results, idleClean),
		"an idle guest converges with an empty stop-and-copy set")
	// Pre-copy bounds residual downtime by the last round's write set, not
	// the VM size.
	r.check("downtime_tracks_write_rate", allCells(results, func(c *migrationRowResult) bool { return c.rep.DowntimePages <= 2*c.run.rate+8 }),
		"stop-and-copy set bounded by the final round's dirty pages, not VM size")
	r.check("isolation_held", allCells(results, func(c *migrationRowResult) bool { return c.auditErr == nil }),
		"Siloz domain exclusivity audited after every move")
	r.Notes = append(r.Notes,
		"downtime is modeled from copied bytes at fixed bandwidth, so identical runs emit identical results")
	return r, nil
}

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

// runMigration boots a fresh system, fills a VM with a deterministic
// pattern, migrates it cross-socket while the guest dirties `rate` pages
// per round, and verifies byte identity afterwards.
func runMigration(ctx context.Context, cfg migrationParams, run migrationRun, seed int64, t *tally) error {
	h, err := bootLab(migrationLabGeometry(), migrationLabProfile(), ept.GuardRows, run.mode)
	if err != nil {
		return err
	}
	vm, err := h.CreateVM(core.KVMProcess(), core.VMSpec{Name: "mig", Socket: 0, MemoryBytes: run.vmBytes})
	if err != nil {
		return err
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
			return err
		}
	}

	dests, err := h.FreeNodes(1, run.vmBytes)
	if err != nil {
		return err
	}
	rep, err := h.MigrateVM(ctx, "mig", dests, core.MigrateOptions{
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
	})
	if err != nil {
		return err
	}

	intact := true
	zero := make([]byte, chunk)
	for p := 0; p < pages && intact; p++ {
		want := mirror[p]
		if want == nil {
			want = zero
		}
		if intact, err = guestHolds(vm, uint64(p)*geometry.PageSize2M, want); err != nil {
			return err
		}
	}

	downtimeMs := modeledMs(rep.DowntimeBytes, cfg.CopyGiBps)
	amp := float64(rep.PagesCopied) / float64(pages)
	t.row(fmt.Sprintf("%s %dMiB rate=%d", run.mode, run.vmBytes/geometry.MiB, run.rate),
		len(rep.Rounds), rep.PagesCopied, amp, rep.DowntimePages, downtimeMs, rep.Converged)
	t.max("max_downtime_pages", float64(rep.DowntimePages))
	t.sum("total_pages_copied", float64(rep.PagesCopied))
	t.vote("memory_intact", intact)
	if run.rate == 0 {
		t.vote("idle_zero_downtime", rep.Converged && rep.DowntimePages == 0)
	}
	// Pre-copy bounds residual downtime by the last round's write set, not
	// the VM size.
	t.vote("downtime_tracks_write_rate", rep.DowntimePages <= 2*run.rate+8)
	if run.mode == core.ModeSiloz {
		t.vote("isolation_held", migrate.AuditIsolation(h) == nil)
	}
	return nil
}

// migrationExp is the "migration" experiment: live pre-copy cost vs. VM
// size and guest write rate, Siloz vs. baseline.
func migrationExp(ctx context.Context, pool *Pool, mc migrationParams) (*Result, error) {
	sizeRates := grid(mc.VMSizes, mc.WriteRates, func(size uint64, rate int) migrationRun {
		return migrationRun{vmBytes: size, rate: rate}
	})
	return sweep[migrationRun]{
		result: Result{
			Name:    "migration",
			Title:   "Live pre-copy migration cost vs. guest write rate",
			Columns: []string{"rounds", "copied", "amplification", "downtime", "modeled downtime", "converged"},
			Units:   []string{"", "pages", "x", "pages", "ms", ""},
			Metadata: map[string]string{
				"downtime_model": fmt.Sprintf("stop-and-copy bytes / %.0f GiB/s", mc.CopyGiBps),
			},
			Notes: []string{"downtime is modeled from copied bytes at fixed bandwidth, so identical runs emit identical results"},
		},
		seed: mc.Seed,
		cells: grid([]core.Mode{core.ModeSiloz, core.ModeBaseline}, sizeRates, func(mode core.Mode, run migrationRun) migrationRun {
			run.mode = mode
			return run
		}),
		checks: []sweepCheck{
			{name: "memory_intact", detail: "guest bytes identical across migration, including writes made mid-flight"},
			{name: "idle_zero_downtime", detail: "an idle guest converges with an empty stop-and-copy set"},
			{name: "downtime_tracks_write_rate", detail: "stop-and-copy set bounded by the final round's dirty pages, not VM size"},
			{name: "isolation_held", detail: "Siloz domain exclusivity audited after every move"},
		},
		cell: func(run migrationRun, seed int64, t *tally) error { return runMigration(ctx, mc, run, seed, t) },
	}.run(ctx, pool)
}

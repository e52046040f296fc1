package workload

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/memctrl"
)

func runnerGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets:         2,
		CoresPerSocket:  4,
		DIMMsPerSocket:  1,
		RanksPerDIMM:    2,
		BanksPerRank:    8,
		RowsPerBank:     2048,
		RowBytes:        8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

func runnerProfile() dram.Profile {
	p := dram.ProfileF()
	p.Transforms = addr.TransformConfig{}
	return p
}

func bootVM(t testing.TB, mode core.Mode) (*core.Hypervisor, *core.VM) {
	t.Helper()
	h, err := core.Boot(core.Config{
		Geometry:      runnerGeometry(),
		Profiles:      []dram.Profile{runnerProfile()},
		EPTProtection: ept.GuardRows,
	}, mode)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(core.Process{KVMPrivileged: true},
		core.VMSpec{Name: "bench", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	return h, vm
}

func TestRunOnVMProducesResults(t *testing.T) {
	h, vm := bootVM(t, core.ModeSiloz)
	ctrl, err := memctrl.New(memctrl.Config{
		Mapper: h.Memory().Mapper(), Timing: memctrl.DDR4_2933(), MLPWindow: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOnVM(vm, ctrl, nil, YCSB{Letter: 'a'}, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses == 0 || res.TotalNs <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Writes == 0 {
		t.Error("YCSB-A run had no writes")
	}
}

func TestSilozAndBaselinePerformanceComparable(t *testing.T) {
	// The central performance claim (§7.2-7.3): Siloz placement changes
	// *where* pages live, not bank-level parallelism, so identical
	// workloads complete in nearly identical simulated time.
	times := make(map[core.Mode]float64)
	for _, mode := range []core.Mode{core.ModeSiloz, core.ModeBaseline} {
		h, vm := bootVM(t, mode)
		ctrl, err := memctrl.New(memctrl.Config{
			Mapper: h.Memory().Mapper(), Timing: memctrl.DDR4_2933(), MLPWindow: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunOnVM(vm, ctrl, nil, MLC{Mode: "stream", Threads: 8}, 30000, 5)
		if err != nil {
			t.Fatal(err)
		}
		times[mode] = res.TotalNs
	}
	rel := times[core.ModeSiloz]/times[core.ModeBaseline] - 1
	if rel > 0.02 || rel < -0.02 {
		t.Errorf("Siloz vs baseline differ by %.2f%%, want within ±2%%", 100*rel)
	}
}

// scriptWorkload replays a fixed access list, optionally running a hook
// before each access — the instrument for hand-computed timing tests and
// for injecting failures mid-stream.
type scriptWorkload struct {
	accs []Access
	hook func(i int)
}

func (scriptWorkload) Name() string { return "script" }

func (s scriptWorkload) Generate(region uint64, ops int, seed int64, emit func(Access) bool) {
	for i, a := range s.accs {
		if s.hook != nil {
			s.hook(i)
		}
		if !emit(a) {
			return
		}
	}
}

// TestRunnerThinkAccountingPinned drives the Runner over a hand-computed
// stream and pins request completion times against the timing model
// applied by hand: DDR4-2933 with zero jitter, a first activation pushed
// behind the initial TRFC refresh, cache hits folding their latency into
// the request's own clock, and an all-hit tail never outrunning the last
// DRAM completion.
func TestRunnerThinkAccountingPinned(t *testing.T) {
	h, vm := bootVM(t, core.ModeSiloz)
	tm := memctrl.DDR4_2933()
	ctrl, err := memctrl.New(memctrl.Config{
		Mapper: h.Memory().Mapper(), Timing: tm, MLPWindow: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := memctrl.NewCache(geometry.MiB, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(vm, ctrl, cache)
	missLat := tm.TRP + tm.TRCD + tm.TCL + tm.TBurst
	approx := func(name string, got, want float64) {
		t.Helper()
		if d := got - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}

	// Request 1: one DRAM miss (think 100) then a cache hit (think 400).
	// The miss issues at t=100 but its activation waits out the initial
	// refresh (TRFC); the trailing hit's 400+HitNs belongs to *this*
	// request, so completion is clock-bound at 100+400+HitNs.
	if err := r.Issue(Access{Offset: 0, ThinkNs: 100}); err != nil {
		t.Fatal(err)
	}
	if err := r.Issue(Access{Offset: 0, ThinkNs: 400}); err != nil {
		t.Fatal(err)
	}
	done1 := r.FinishRequest()
	approx("request 1 completion", done1, 100+400+cache.HitNs)
	approx("TotalNs after request 1", ctrl.Result().TotalNs, done1)

	// Request 2: a miss on a fresh line (think 30) then a hit (think 5).
	// The DRAM access issues at done1+30 with no timing constraint
	// binding, so it completes a full miss latency later; the small
	// trailing hit advances the clock only to done1+30+5+HitNs, which
	// must NOT outrun the DRAM completion.
	if err := r.Issue(Access{Offset: line, ThinkNs: 30}); err != nil {
		t.Fatal(err)
	}
	if err := r.Issue(Access{Offset: 0, ThinkNs: 5}); err != nil {
		t.Fatal(err)
	}
	done2 := r.FinishRequest()
	approx("request 2 completion", done2, done1+30+missLat)
	if got := ctrl.Result().Accesses; got != 2 {
		t.Fatalf("DRAM accesses = %d, want 2 (two hits served by cache)", got)
	}
}

// TestRunOnVMErrorPathSettlesThink pins the error-path fix: when the
// stream dies mid-run, the accesses already issued — including trailing
// cache-hit think time — must still be visible in the returned partial
// result. The pre-fix code returned a zero Result and dropped the pending
// think entirely.
func TestRunOnVMErrorPathSettlesThink(t *testing.T) {
	h, vm := bootVM(t, core.ModeSiloz)
	ctrl, err := memctrl.New(memctrl.Config{
		Mapper: h.Memory().Mapper(), Timing: memctrl.DDR4_2933(), MLPWindow: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := memctrl.NewCache(geometry.MiB, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := scriptWorkload{
		accs: []Access{
			{Offset: 0, ThinkNs: 100}, // DRAM miss
			{Offset: 0, ThinkNs: 400}, // cache hit: pending think 400+HitNs
			{Offset: 0, ThinkNs: 1},   // never issued: VM destroyed first
		},
		hook: func(i int) {
			if i == 2 {
				if err := h.DestroyVM("bench"); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	res, err := RunOnVM(vm, ctrl, cache, w, 1, 1)
	if err == nil {
		t.Fatal("expected a translation error from the destroyed VM")
	}
	if res.Accesses != 1 {
		t.Fatalf("partial result has %d accesses, want 1", res.Accesses)
	}
	want := 100 + 400 + cache.HitNs
	if res.TotalNs < want-1e-9 {
		t.Fatalf("TotalNs = %v: trailing pending think dropped on the error path (want >= %v)",
			res.TotalNs, want)
	}
}

func TestRunOnVMSurfacesTranslationErrors(t *testing.T) {
	h, vm := bootVM(t, core.ModeSiloz)
	ctrl, err := memctrl.New(memctrl.Config{
		Mapper: h.Memory().Mapper(), Timing: memctrl.DDR4_2933(), MLPWindow: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := Kernel{KernelName: "bad", StreamFrac: 1}
	// Destroy the VM to invalidate its tables, then run.
	if err := h.DestroyVM("bench"); err != nil {
		t.Fatal(err)
	}
	if _, err := RunOnVM(vm, ctrl, nil, bad, 10, 1); err == nil {
		t.Error("expected an error running on a destroyed VM")
	}
}

// TestIssueRunEdges tables the places a run is cut — 2 MiB page boundaries of
// a guest whose pages are not physically contiguous, the region's end, the 64
// lines a miss mask holds — a line-unaligned base, and the two errors a line
// can die of, each of which must surface at the line index, with the message
// and after the DRAM accesses, of the per-line path.
func TestIssueRunEdges(t *testing.T) {
	h, vm := bootScattered(t)
	region := vm.Spec().MemoryBytes
	const page = geometry.PageSize2M

	// A mapper over less memory than the host has, ending 1 MiB into the
	// guest's page 3: lines past that decode out of range.
	hpa3, err := vm.Translate(3 * page)
	if err != nil {
		t.Fatal(err)
	}
	small := runnerGeometry()
	bankRowBytes := uint64(small.TotalBytes()) / uint64(small.RowsPerBank)
	small.RowsPerBank = int((hpa3 + page/2) / bankRowBytes)
	small.RowsPerSubarray = small.RowsPerBank
	short, err := addr.NewMapper(small, addr.KindLinear)
	if err != nil {
		t.Fatal(err)
	}
	if end := uint64(small.TotalBytes()); end != hpa3+page/2 {
		t.Fatalf("short mapper ends at %#x, want %#x", end, hpa3+page/2)
	}

	for _, tc := range []struct {
		name     string
		cfg      diffConfig
		run      Run
		accesses int    // DRAM accesses with no cache
		errWants string // prefix of the error, "" for none
	}{
		{name: "empty", run: Run{Offset: 640}},
		{name: "one line", run: Run{Offset: 640, Lines: 1, ThinkNs: 50}, accesses: 1},
		{name: "inside a page", run: Run{Offset: page + 4096, Lines: 64, Write: true}, accesses: 64},
		{name: "across a page boundary", run: Run{Offset: 2*page - 5*line, Lines: 12, ThinkNs: 10}, accesses: 12},
		{name: "across three pages", run: Run{Offset: 5*page - 3*line, Lines: 2*int(page/line) + 9}, accesses: 2*int(page/line) + 9},
		{name: "region wrap", run: Run{Offset: region - 3*line, Lines: 8, Write: true}, accesses: 8},
		{name: "offset past the region", run: Run{Offset: 3*region + 7*line, Lines: 4}, accesses: 4},
		{name: "wider than a mask", run: Run{Offset: page, Lines: 200, ThinkNs: 5}, accesses: 200},
		{name: "mask width exactly", run: Run{Offset: page + 64*line, Lines: 64}, accesses: 64},
		{name: "unaligned base", run: Run{Offset: 4*page - 2*line - 17, Lines: 6, Write: true}, accesses: 6},
		{name: "unaligned region wrap", run: Run{Offset: region - line - 1, Lines: 5}, accesses: 5},
		{
			name: "translation dies mid-run", cfg: diffConfig{overhang: page},
			run: Run{Offset: region - 7*line, Lines: 20}, accesses: 7,
			errWants: fmt.Sprintf("translating %#x: ", region),
		},
		{
			name: "decode out of range mid-run", cfg: diffConfig{mapper: short},
			run: Run{Offset: 3*page + page/2 - 4*line, Lines: 10}, accesses: 4,
			errWants: fmt.Sprintf("access %#x: ", hpa3+page/2),
		},
		{
			name: "decode out of range at an unaligned base", cfg: diffConfig{mapper: short},
			run: Run{Offset: 3*page + page/2 - 2*line - 9, Lines: 10}, accesses: 3,
			errWants: fmt.Sprintf("access %#x: ", hpa3+page/2+line-9),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := newDiffRunner(h, vm, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = r.IssueRun(tc.run)
			switch {
			case tc.errWants == "" && err != nil:
				t.Fatal(err)
			case tc.errWants != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.errWants)):
				t.Fatalf("error %v, want prefix %q", err, tc.errWants)
			}
			if got := r.ctrl.Result().Accesses; got != tc.accesses {
				t.Fatalf("%d DRAM accesses, want %d", got, tc.accesses)
			}
			// The same run, twice so the second pass meets its own lines
			// in the cache, on every stack against the per-line path.
			ops := []diffOp{{run: tc.run}, {run: tc.run, finish: true}}
			for name, cfg := range diffConfigs() {
				cfg.overhang, cfg.mapper = tc.cfg.overhang, tc.cfg.mapper
				if err := diffRun(h, vm, cfg, (*Runner).IssueRun, ops); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}

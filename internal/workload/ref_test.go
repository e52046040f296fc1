package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
)

// refIssue is the per-line Issue body IssueRun replaced, kept verbatim as the
// differential oracle: one region wrap, one translation, one cache lookup and
// one full decode per line. A run must leave the controller, the cache and the
// request clock exactly where issuing its lines through this one by one does.
func refIssue(r *Runner, a Access) error {
	hpa, err := r.vm.Translate(a.Offset % r.region)
	if err != nil {
		return fmt.Errorf("translating %#x: %w", a.Offset, err)
	}
	if r.cache != nil && r.cache.Access(hpa) {
		r.pendingThink += a.ThinkNs + r.cache.HitNs
		return nil
	}
	done, _, err := r.ctrl.DoTimed(memctrl.Access{PA: hpa, Write: a.Write, ThinkNs: a.ThinkNs + r.pendingThink})
	if err != nil {
		return fmt.Errorf("access %#x: %w", hpa, err)
	}
	r.pendingThink = 0
	if done > r.lastDone {
		r.lastDone = done
	}
	return nil
}

// refIssueRun issues a run's lines one by one through refIssue, stopping at
// the first line that fails, as a caller looping over Issue did.
func refIssueRun(r *Runner, run Run) error {
	for i := 0; i < run.Lines; i++ {
		if err := refIssue(r, run.access(i)); err != nil {
			return err
		}
	}
	return nil
}

// refNext is the per-line Next body NextRuns replaced, kept verbatim.
func refNext(k *KVRequests) []Access {
	key := k.z.Uint64()
	write := k.rng.Float64() >= k.readFrac
	k.buf = k.buf[:0]
	think := k.thinkNs
	for _, off := range k.l.indexProbe(key) {
		k.buf = append(k.buf, Access{Offset: off, ThinkNs: think})
		think = 0
	}
	base := k.l.valueBase(key)
	for off := uint64(0); off < k.l.valueSize; off += line {
		k.buf = append(k.buf, Access{Offset: (base + off) % k.l.region, Write: write})
	}
	return k.buf
}

// scatteredPages is how many 2 MiB pages bootScattered's guest has.
const scatteredPages = 8

// bootScattered boots a baseline host and grows two guests in turns, a page
// at a time, so that no two consecutive guest pages of the returned VM are
// physically consecutive: a run that holds one translation across a page
// boundary lands in the other guest's memory.
func bootScattered(t testing.TB) (*core.Hypervisor, *core.VM) {
	t.Helper()
	h, err := core.Boot(core.Config{Geometry: runnerGeometry()}, core.ModeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Shutdown)
	for size := uint64(geometry.PageSize2M); size <= scatteredPages*geometry.PageSize2M; size += geometry.PageSize2M {
		for _, name := range []string{"a", "b"} {
			if size == geometry.PageSize2M {
				_, err = h.CreateVM(core.Process{KVMPrivileged: true}, core.VMSpec{Name: name, MemoryBytes: size})
			} else {
				_, err = h.ResizeVM(name, size)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	vm, _ := h.VM("a")
	var prev uint64
	for p := uint64(0); p < scatteredPages; p++ {
		hpa, err := vm.Translate(p * geometry.PageSize2M)
		if err != nil {
			t.Fatal(err)
		}
		if p > 0 && hpa == prev+geometry.PageSize2M {
			t.Fatalf("guest pages %d and %d are physically consecutive (%#x, %#x): the scattered layout is not scattered", p-1, p, prev, hpa)
		}
		prev = hpa
	}
	return h, vm
}

// diffConfig selects what stands behind the two runners of a differential run.
type diffConfig struct {
	cache, defended bool
	// overhang extends both runners' region past the guest's RAM, so offsets
	// in the tail fail to translate: the stale region of a runner whose
	// guest shrank under it.
	overhang uint64
	// mapper, when set, replaces the host's own in both controllers: one
	// over a smaller geometry makes the guest's upper pages out of range.
	mapper addr.Mapper
}

// diffOp is one step of a differential script: a run, and whether the request
// ends after it.
type diffOp struct {
	run    Run
	finish bool
}

func newDiffRunner(h *core.Hypervisor, vm *core.VM, cfg diffConfig) (*Runner, error) {
	mapper := cfg.mapper
	if mapper == nil {
		mapper = h.Memory().Mapper()
	}
	mc := memctrl.Config{Mapper: mapper, Timing: memctrl.DDR4_2933(), MLPWindow: 10}
	if cfg.defended {
		// A small table and a low threshold: evictions and refreshes fire
		// within a few hundred misses.
		mc.Mitigation = mitigation.NewSilverBullet(mapper.Geometry().TotalBanks(), 4, 3, 0)
	}
	ctrl, err := memctrl.New(mc)
	if err != nil {
		return nil, err
	}
	var cache *memctrl.Cache
	if cfg.cache {
		// 64 KiB: small enough that a few runs evict each other's lines.
		if cache, err = memctrl.NewCache(64*geometry.KiB, 4); err != nil {
			return nil, err
		}
	}
	r := NewRunner(vm, ctrl, cache)
	r.region += cfg.overhang
	return r, nil
}

func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return got.Error() == want.Error() && errors.Is(got, addr.ErrOutOfRange) == errors.Is(want, addr.ErrOutOfRange)
}

// diffRun drives a script through issue on one runner and through the
// per-line reference on another over the same guest, and reports the first
// step at which an error, a request's completion time, the controller's
// result or the cache's counters part.
func diffRun(h *core.Hypervisor, vm *core.VM, cfg diffConfig, issue func(*Runner, Run) error, ops []diffOp) error {
	got, err := newDiffRunner(h, vm, cfg)
	if err != nil {
		return err
	}
	want, err := newDiffRunner(h, vm, cfg)
	if err != nil {
		return err
	}
	for i, op := range ops {
		gerr, werr := issue(got, op.run), refIssueRun(want, op.run)
		if !sameError(gerr, werr) {
			return fmt.Errorf("op %d %+v: error %v, per-line %v", i, op.run, gerr, werr)
		}
		if op.finish {
			if g, w := got.FinishRequest(), want.FinishRequest(); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("op %d %+v: request completes at %v, per-line %v", i, op.run, g, w)
			}
		}
		// Checked at every step so that a divergence is reported where it
		// happens: Result is a small struct copy.
		g, w := got.ctrl.Result(), want.ctrl.Result()
		if math.Float64bits(g.TotalNs) != math.Float64bits(w.TotalNs) || g != w {
			return fmt.Errorf("op %d %+v: controller result %+v, per-line %+v", i, op.run, g, w)
		}
		if cfg.cache && (got.cache.Hits() != want.cache.Hits() || got.cache.Misses() != want.cache.Misses()) {
			return fmt.Errorf("op %d %+v: cache hits/misses %d/%d, per-line %d/%d", i, op.run,
				got.cache.Hits(), got.cache.Misses(), want.cache.Hits(), want.cache.Misses())
		}
		if math.Float64bits(got.pendingThink) != math.Float64bits(want.pendingThink) || math.Float64bits(got.lastDone) != math.Float64bits(want.lastDone) {
			return fmt.Errorf("op %d %+v: pending think/last completion %v/%v, per-line %v/%v", i, op.run,
				got.pendingThink, got.lastDone, want.pendingThink, want.lastDone)
		}
	}
	return nil
}

// randomOps draws a script of run shapes over a region: bases at random, just
// short of a 2 MiB page boundary, or just short of the region's end; aligned
// or not; zero to 200 lines (so several mask widths); think times and a
// write mix; requests of one to four runs. Offsets stay below region+overhang.
func randomOps(rng *rand.Rand, region, overhang uint64, n int) []diffOp {
	ops := make([]diffOp, n)
	for i := range ops {
		var off uint64
		switch rng.Intn(4) {
		case 0: // a few lines short of a page boundary
			off = uint64(1+rng.Intn(int(region/geometry.PageSize2M)))*geometry.PageSize2M - uint64(rng.Intn(40))*line
		case 1: // a few lines short of the region's end
			off = region + overhang - uint64(1+rng.Intn(40))*line
		default:
			off = uint64(rng.Int63n(int64(region + overhang)))
			off &^= line - 1
		}
		if rng.Intn(3) == 0 {
			off += uint64(rng.Intn(line)) // a line-unaligned base
		}
		off %= region + overhang
		lines := rng.Intn(24)
		if rng.Intn(4) == 0 {
			lines = rng.Intn(201)
		}
		var think float64
		if rng.Intn(2) == 0 {
			think = rng.Float64() * 400
		}
		ops[i] = diffOp{
			run:    Run{Offset: off, Lines: lines, Write: rng.Intn(2) == 0, ThinkNs: think},
			finish: rng.Intn(3) == 0,
		}
	}
	return ops
}

// diffConfigs are the four stacks a run can sit on: cache on/off, Silver
// Bullet on/off.
func diffConfigs() map[string]diffConfig {
	return map[string]diffConfig{
		"bare":           {},
		"cache":          {cache: true},
		"defended":       {defended: true},
		"cache+defended": {cache: true, defended: true},
	}
}

func TestRunMatchesPerLine(t *testing.T) {
	h, vm := bootScattered(t)
	region := vm.Spec().MemoryBytes
	cfgs := diffConfigs()
	// The two other mapping families behind the controller: a stripe one
	// bank wide (every step of the cursor wraps) and one a partition wide.
	linear, err := addr.NewMapper(runnerGeometry(), addr.KindLinear)
	if err != nil {
		t.Fatal(err)
	}
	partitioned, err := addr.NewPartitionedMapper(runnerGeometry(), 4)
	if err != nil {
		t.Fatal(err)
	}
	cfgs["linear"] = diffConfig{cache: true, mapper: linear}
	cfgs["partitioned"] = diffConfig{cache: true, defended: true, mapper: partitioned}
	for name, cfg := range cfgs {
		for _, overhang := range []uint64{0, 4 * geometry.MiB} {
			t.Run(fmt.Sprintf("%s/overhang=%d", name, overhang), func(t *testing.T) {
				cfg.overhang = overhang
				ops := randomOps(rand.New(rand.NewSource(int64(len(name))+int64(overhang))), region, overhang, 3000)
				if err := diffRun(h, vm, cfg, (*Runner).IssueRun, ops); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// FuzzRunMatchesPerLine lets the fuzzer pick the script's seed and length, the
// stack, and whether the region overhangs the guest's RAM.
func FuzzRunMatchesPerLine(f *testing.F) {
	h, vm := bootScattered(f)
	region := vm.Spec().MemoryBytes
	f.Add(int64(1), uint16(200), uint8(0))
	f.Add(int64(2), uint16(500), uint8(3))
	f.Add(int64(3), uint16(300), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, flags uint8) {
		cfg := diffConfig{cache: flags&1 != 0, defended: flags&2 != 0}
		if flags&4 != 0 {
			cfg.overhang = 4 * geometry.MiB
		}
		ops := randomOps(rand.New(rand.NewSource(seed)), region, cfg.overhang, int(n%1024))
		if err := diffRun(h, vm, cfg, (*Runner).IssueRun, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDifferentialCatchesOneTranslatePerRun shows the harness has teeth: a
// runner that translates a run's first line and steps the host address from
// there — right inside a page, wrong across a boundary of a guest whose pages
// are not physically contiguous — is reported on every stack.
func TestDifferentialCatchesOneTranslatePerRun(t *testing.T) {
	h, vm := bootScattered(t)
	region := vm.Spec().MemoryBytes
	mutant := func(r *Runner, run Run) error {
		if run.Lines == 0 {
			return nil
		}
		hpa, err := r.vm.Translate(run.Offset % r.region)
		if err != nil {
			return fmt.Errorf("translating %#x: %w", run.Offset, err)
		}
		think := run.ThinkNs
		for i := 0; i < run.Lines; i++ {
			pa := hpa + uint64(i)*line
			if r.cache != nil && r.cache.Access(pa) {
				r.pendingThink += think + r.cache.HitNs
			} else {
				done, _, err := r.ctrl.DoTimed(memctrl.Access{PA: pa, Write: run.Write, ThinkNs: think + r.pendingThink})
				if err != nil {
					return fmt.Errorf("access %#x: %w", pa, err)
				}
				r.pendingThink = 0
				r.lastDone = max(r.lastDone, done)
			}
			think = 0
		}
		return nil
	}
	for name, cfg := range diffConfigs() {
		ops := randomOps(rand.New(rand.NewSource(9)), region, 0, 3000)
		if err := diffRun(h, vm, cfg, mutant, ops); err == nil {
			t.Errorf("%s: one translation per run went unnoticed over %d runs", name, len(ops))
		}
	}
}

// TestKVRequestsRunsExpandToNext: twin generators, one read as runs and one
// through the retired per-line body, agree access for access over 10 000
// requests and across resizes — down to a region so small that every value
// wraps — and Next is the same expansion.
func TestKVRequestsRunsExpandToNext(t *testing.T) {
	for _, valueSize := range []uint64{1024, 4096, 100, 8192} {
		runs := NewKVRequests(testRegion, valueSize, 0.5, 150, 11)
		lines := NewKVRequests(testRegion, valueSize, 0.5, 150, 11)
		ref := NewKVRequests(testRegion, valueSize, 0.5, 150, 11)
		for i := 0; i < 10_000; i++ {
			switch i {
			case 4000:
				for _, k := range []*KVRequests{runs, lines, ref} {
					k.Resize(testRegion / 4)
				}
			case 7000: // two keys, values that wrap
				for _, k := range []*KVRequests{runs, lines, ref} {
					k.Resize(valueSize + 200)
				}
			case 8000:
				for _, k := range []*KVRequests{runs, lines, ref} {
					k.Resize(7)
				}
			}
			var expanded []Access
			for _, run := range runs.NextRuns() {
				if run.Lines < 1 {
					t.Fatalf("request %d: empty run %+v", i, run)
				}
				for j := 0; j < run.Lines; j++ {
					expanded = append(expanded, run.access(j))
				}
			}
			want := refNext(ref)
			got := lines.Next()
			if len(expanded) != len(want) || len(got) != len(want) {
				t.Fatalf("value %d request %d: %d accesses from runs, %d from Next, per-line %d", valueSize, i, len(expanded), len(got), len(want))
			}
			for j := range want {
				if expanded[j] != want[j] || got[j] != want[j] {
					t.Fatalf("value %d request %d access %d: runs %+v, Next %+v, per-line %+v", valueSize, i, j, expanded[j], got[j], want[j])
				}
			}
		}
	}
}

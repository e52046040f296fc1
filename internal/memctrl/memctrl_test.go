package memctrl

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

func tinyGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets:         2,
		CoresPerSocket:  4,
		DIMMsPerSocket:  1,
		RanksPerDIMM:    2,
		BanksPerRank:    2,
		RowsPerBank:     2048,
		RowBytes:        8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

func newCtrl(t *testing.T, mapper addr.Mapper, window int) *Controller {
	t.Helper()
	c, err := New(Config{Mapper: mapper, Timing: DDR4_2933(), MLPWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func streamRun(t *testing.T, c *Controller, n int, stride uint64) Result {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.Do(Access{PA: uint64(i) * stride}); err != nil {
			t.Fatal(err)
		}
	}
	return c.Result()
}

func TestConfigValidation(t *testing.T) {
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	if _, err := New(Config{Mapper: m, MLPWindow: 0}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := New(Config{MLPWindow: 4}); err == nil {
		t.Error("nil mapper accepted")
	}
}

func TestBankLevelParallelismSpeedsUpStreams(t *testing.T) {
	// §4.1: losing bank-level parallelism costs >18% on streaming
	// workloads. The interleaved (Skylake) mapping must beat the
	// one-bank-at-a-time (linear) mapping by a wide margin.
	g := tinyGeometry()
	sky, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := addr.NewLinearMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000
	interleaved := streamRun(t, newCtrl(t, sky, 10), n, geometry.CacheLineSize)
	serial := streamRun(t, newCtrl(t, lin, 10), n, geometry.CacheLineSize)
	if interleaved.TotalNs >= serial.TotalNs {
		t.Fatalf("interleaving slower than serial: %v vs %v", interleaved.TotalNs, serial.TotalNs)
	}
	speedup := serial.TotalNs / interleaved.TotalNs
	// The linear mapping still gets row-buffer hits, so it is not
	// catastrophically slow — but BLP should win by well beyond the
	// paper's 18% figure for pure streams.
	if speedup < 1.18 {
		t.Errorf("BLP speedup = %.2fx, want > 1.18x (§4.1)", speedup)
	}
}

func TestRowBufferHitsCounted(t *testing.T) {
	// Accesses within one row group at the same bank offset: second
	// access to the same row is a hit.
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	c := newCtrl(t, m, 1)
	if _, err := c.Do(Access{PA: 0}); err != nil {
		t.Fatal(err)
	}
	// Same bank, same row: PA 0 and PA + banks*64 land in the same bank.
	banks := uint64(g.BanksPerSocket())
	if _, err := c.Do(Access{PA: banks * geometry.CacheLineSize}); err != nil {
		t.Fatal(err)
	}
	r := c.Result()
	if r.RowMisses != 1 || r.RowHits != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", r.RowHits, r.RowMisses)
	}
}

func TestMLPWindowLimitsOverlap(t *testing.T) {
	// With window 1, every access serializes: total time ~= sum of
	// latencies. With window 16, random-bank accesses overlap.
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	n := 10000
	narrow := streamRun(t, newCtrl(t, m, 1), n, geometry.CacheLineSize)
	wide := streamRun(t, newCtrl(t, m, 16), n, geometry.CacheLineSize)
	if wide.TotalNs >= narrow.TotalNs {
		t.Errorf("wider MLP window did not help: %v vs %v", wide.TotalNs, narrow.TotalNs)
	}
}

func TestRemoteSocketPenalty(t *testing.T) {
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	local := newCtrl(t, m, 1)
	if _, err := local.Do(Access{PA: 0}); err != nil { // socket 0
		t.Fatal(err)
	}
	remoteCfg := Config{Mapper: m, Timing: DDR4_2933(), MLPWindow: 1, HomeSocket: 1}
	remote, err := New(remoteCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Do(Access{PA: 0}); err != nil { // socket 0 from socket 1
		t.Fatal(err)
	}
	if remote.Result().TotalNs <= local.Result().TotalNs {
		t.Error("remote access not penalized")
	}
	want := local.Result().TotalNs + DDR4_2933().RemotePenalty
	if got := remote.Result().TotalNs; got != want {
		t.Errorf("remote total = %v, want %v", got, want)
	}
}

func TestThinkTimeAdvancesClock(t *testing.T) {
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	c := newCtrl(t, m, 4)
	if _, err := c.Do(Access{PA: 0, ThinkNs: 1000}); err != nil {
		t.Fatal(err)
	}
	if got := c.Result().TotalNs; got < 1000 {
		t.Errorf("TotalNs = %v, want >= 1000 (think time)", got)
	}
}

func TestNowAndAdvanceTo(t *testing.T) {
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	c := newCtrl(t, m, 4)
	if c.Now() != 0 {
		t.Fatalf("fresh Now = %v", c.Now())
	}
	// AdvanceTo moves the issue clock forward but, unlike Idle, does not
	// extend the completion frontier: waiting for an arrival is not work.
	c.AdvanceTo(5000)
	if c.Now() != 5000 {
		t.Fatalf("Now = %v after AdvanceTo(5000)", c.Now())
	}
	if got := c.Result().TotalNs; got != 0 {
		t.Fatalf("AdvanceTo counted as modeled time: TotalNs = %v", got)
	}
	c.AdvanceTo(100) // never moves backwards
	if c.Now() != 5000 {
		t.Fatalf("AdvanceTo moved the clock backwards to %v", c.Now())
	}
	// The next access issues no earlier than the advanced clock.
	done, err := c.Do(Access{PA: 0})
	if err != nil {
		t.Fatal(err)
	}
	if done < 5000 {
		t.Fatalf("access completed at %v, before the advanced clock", done)
	}
	c.Idle(200)
	if got := c.Result().TotalNs; got < 5200-1e-9 {
		t.Fatalf("Idle did not extend the frontier: %v", got)
	}
}

func TestResultCounters(t *testing.T) {
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	c := newCtrl(t, m, 4)
	for i := 0; i < 10; i++ {
		if _, err := c.Do(Access{PA: uint64(i) * 64, Write: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	r := c.Result()
	if r.Accesses != 10 || r.Reads != 5 || r.Writes != 5 {
		t.Errorf("counters wrong: %+v", r)
	}
	if r.Bytes != 640 {
		t.Errorf("Bytes = %d", r.Bytes)
	}
	if r.ThroughputGBs() <= 0 || r.OpsPerSec() <= 0 {
		t.Error("derived rates must be positive")
	}
}

func TestJitterIsBoundedAndSeeded(t *testing.T) {
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	run := func(seed int64) float64 {
		c, err := New(Config{Mapper: m, Timing: DDR4_2933(), MLPWindow: 8, JitterSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return streamRun(t, c, 20000, geometry.CacheLineSize).TotalNs
	}
	base := run(0)
	a1, a2, b := run(1), run(1), run(2)
	if a1 != a2 {
		t.Error("same seed produced different results")
	}
	if a1 == b {
		t.Error("different seeds produced identical results")
	}
	rel := (a1 - base) / base
	if rel > 0.02 || rel < -0.02 {
		t.Errorf("jitter moved total by %.3f, want within ±2%%", rel)
	}
}

func TestResetClearsState(t *testing.T) {
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	c := newCtrl(t, m, 4)
	streamRun(t, c, 100, 64)
	c.Reset()
	r := c.Result()
	if r.Accesses != 0 || r.TotalNs != 0 {
		t.Errorf("Reset left state: %+v", r)
	}
}

func TestDoRejectsOutOfRange(t *testing.T) {
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	c := newCtrl(t, m, 4)
	if _, err := c.Do(Access{PA: uint64(g.TotalBytes())}); err == nil {
		t.Error("out-of-range access accepted")
	}
}

func TestRefreshStallsRequests(t *testing.T) {
	// A row miss issued during a refresh cycle waits for tRFC.
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	tm := DDR4_2933()
	c, err := New(Config{Mapper: m, Timing: tm, MLPWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The very first access at t=0 falls inside refresh window 0
	// ([0, tRFC)) and is pushed past it.
	done, err := c.Do(Access{PA: 0})
	if err != nil {
		t.Fatal(err)
	}
	if done < tm.TRFC {
		t.Errorf("first access completed at %v, want >= tRFC (%v)", done, tm.TRFC)
	}
}

func TestRefreshOverheadBounded(t *testing.T) {
	// Long random-miss runs lose roughly tRFC/tREFI (~4.5%) to refresh.
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	withRef := DDR4_2933()
	noRef := withRef
	noRef.TREFI, noRef.TRFC = 0, 0
	run := func(tm Timing) float64 {
		c, err := New(Config{Mapper: m, Timing: tm, MLPWindow: 8})
		if err != nil {
			t.Fatal(err)
		}
		// Stride by a whole row group so every access misses.
		stride := uint64(g.RowGroupBytes())
		for i := 0; i < 20000; i++ {
			pa := (uint64(i) * stride) % uint64(g.TotalBytes())
			if _, err := c.Do(Access{PA: pa}); err != nil {
				t.Fatal(err)
			}
		}
		return c.Result().TotalNs
	}
	overhead := run(withRef)/run(noRef) - 1
	if overhead <= 0 || overhead > 0.10 {
		t.Errorf("refresh overhead %.3f, want within (0, 0.10]", overhead)
	}
}

func TestFAWLimitsActivationBursts(t *testing.T) {
	// Five back-to-back row misses in one rank: the fifth activation
	// cannot start before the first + tFAW.
	g := tinyGeometry()
	m, _ := addr.NewLinearMapper(g) // same bank -> same rank trivially
	tm := DDR4_2933()
	tm.TREFI, tm.TRFC = 0, 0 // isolate the FAW effect
	c, err := New(Config{Mapper: m, Timing: tm, MLPWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Different rows of the same bank: every access is a miss.
	var last float64
	for i := 0; i < 5; i++ {
		done, err := c.Do(Access{PA: uint64(i) * uint64(g.RowBytes)})
		if err != nil {
			t.Fatal(err)
		}
		last = done
	}
	if min := tm.TFAW + tm.missLatency(); last < min {
		t.Errorf("fifth activation completed at %v, want >= %v (tFAW)", last, min)
	}
}

func TestActivationTracking(t *testing.T) {
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	c, err := New(Config{Mapper: m, Timing: DDR4_2933(), MLPWindow: 4, TrackActivations: true})
	if err != nil {
		t.Fatal(err)
	}
	// Ping-pong two rows of one bank: every access is an activation of
	// one of two rows.
	rowStride := uint64(g.BanksPerSocket()) * geometry.CacheLineSize * uint64(g.RowBytes/geometry.CacheLineSize)
	const n = 5000
	for i := 0; i < n; i++ {
		pa := uint64(0)
		if i%2 == 1 {
			pa = rowStride
		}
		if _, err := c.Do(Access{PA: pa}); err != nil {
			t.Fatal(err)
		}
	}
	peak := c.Result().PeakRowACTs
	if peak < n/2-10 || peak > n/2+10 {
		t.Errorf("PeakRowACTs = %d, want ~%d", peak, n/2)
	}
	// Untracked controllers report zero.
	c2, _ := New(Config{Mapper: m, Timing: DDR4_2933(), MLPWindow: 4})
	if _, err := c2.Do(Access{PA: 0}); err != nil {
		t.Fatal(err)
	}
	if c2.Result().PeakRowACTs != 0 {
		t.Error("untracked controller reported activations")
	}
}

// TestActivationTrackingMatchesMapReference drives observeMit, the miss
// path's one observer call, with a randomized stream — many banks, colliding
// rows, window advances AND regressions (per-bank start times are not
// globally monotone) — and checks the tracker's flat generation-reset tables
// report the same per-window counts and running peak as the (bank,row)-keyed
// map the old implementation used.
func TestActivationTrackingMatchesMapReference(t *testing.T) {
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	c, err := New(Config{Mapper: m, Timing: DDR4_2933(), MLPWindow: 4, TrackActivations: true})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the retired implementation, verbatim.
	refWindow := int64(-1)
	var refCounts map[[2]int]int
	refPeak := 0
	refTrack := func(bank, row int, at float64) {
		w := int64(at / refreshWindowNs)
		if w != refWindow || refCounts == nil {
			refWindow = w
			refCounts = make(map[[2]int]int)
		}
		key := [2]int{bank, row}
		refCounts[key]++
		if refCounts[key] > refPeak {
			refPeak = refCounts[key]
		}
	}

	rng := rand.New(rand.NewSource(99))
	banks := g.TotalBanks()
	at := 0.0
	for i := 0; i < 300_000; i++ {
		bank := rng.Intn(banks)
		row := rng.Intn(64) // small row space forces collisions and growth
		switch rng.Intn(100) {
		case 0: // jump forward a whole window
			at += refreshWindowNs
		case 1: // regress: an earlier bank's stream lags behind
			at -= refreshWindowNs / 2
			if at < 0 {
				at = 0
			}
		default:
			at += rng.Float64() * 100
		}
		c.observeMit(bank, row, at)
		refTrack(bank, row, at)
		if c.peak.peak != refPeak {
			t.Fatalf("step %d: peak = %d, reference %d", i, c.peak.peak, refPeak)
		}
	}
	// Final per-(bank,row) counts of the live window must agree exactly,
	// over the whole (bank,row) space: Add(row, 0) reads a count, and an
	// absent row reads 0 — what the reference holds for a row the window
	// never activated.
	for bank := range c.peak.tables {
		for row := 0; row < 64; row++ {
			if got, want := int(c.peak.tables[bank].Add(row, 0)), refCounts[[2]int{bank, row}]; got != want {
				t.Fatalf("bank %d row %d: count %d, reference %d", bank, row, got, want)
			}
		}
	}
}

// TestActivationTrackingBesideMitigation chains the tracker ahead of a
// defense: the defense's refreshes and the run's timing are those of the
// defense alone, and the peak is that of tracking alone.
func TestActivationTrackingBesideMitigation(t *testing.T) {
	g := tinyGeometry()
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	run := func(track bool, mit mitigation.Mitigation) Result {
		c, err := New(Config{Mapper: m, Timing: DDR4_2933(), MLPWindow: 4, TrackActivations: track, Mitigation: mit})
		if err != nil {
			t.Fatal(err)
		}
		rowStride := uint64(g.RowGroupBytes())
		for i := 0; i < 2000; i++ {
			if _, err := c.Do(Access{PA: uint64(i%3) * rowStride, ThinkNs: 20}); err != nil {
				t.Fatal(err)
			}
		}
		return c.Result()
	}
	both := run(true, mitigation.NewPARA(0.5, 3))
	defense := run(false, mitigation.NewPARA(0.5, 3))
	tracked := run(true, nil)
	if both.TotalNs != defense.TotalNs || both.MitigationRefreshes != defense.MitigationRefreshes {
		t.Errorf("tracking changed the defended run: %v ns / %d refreshes, alone %v ns / %d",
			both.TotalNs, both.MitigationRefreshes, defense.TotalNs, defense.MitigationRefreshes)
	}
	if both.MitigationRefreshes == 0 {
		t.Error("PARA injected no refresh; the case cannot see the chain")
	}
	if both.PeakRowACTs == 0 || defense.PeakRowACTs != 0 {
		t.Errorf("peak %d tracked beside the defense, %d untracked; want > 0 and 0", both.PeakRowACTs, defense.PeakRowACTs)
	}
	if tracked.PeakRowACTs != both.PeakRowACTs {
		t.Errorf("peak %d tracked alone, %d beside the defense", tracked.PeakRowACTs, both.PeakRowACTs)
	}

	// Chaining the tracker allocates nothing beyond its own tables, and
	// tracking alone binds no refresh sink.
	allocs := func(track bool, mit mitigation.Mitigation) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := New(Config{Mapper: m, Timing: DDR4_2933(), MLPWindow: 4, TrackActivations: track, Mitigation: mit}); err != nil {
				t.Fatal(err)
			}
		})
	}
	para := mitigation.NewPARA(0.5, 3)
	plain, tables, sink := allocs(false, nil), allocs(true, nil), allocs(false, para)
	if got, want := allocs(true, para), tables+sink-plain; got != want {
		t.Errorf("tracked and defended controller: %v allocs, want %v (plain %v, tracked %v, defended %v)",
			got, want, plain, tables, sink)
	}
}

func TestMitigationHookChargesBankTime(t *testing.T) {
	g := tinyGeometry()
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	// PARA at p=1 injects one refresh per miss — maximal, fully
	// deterministic charging.
	para := mitigation.NewPARA(1, 1)
	c, err := New(Config{Mapper: m, Timing: DDR4_2933(), MLPWindow: 1, Mitigation: para})
	if err != nil {
		t.Fatal(err)
	}
	base := newCtrl(t, m, 1)
	rowStride := uint64(g.RowGroupBytes())
	var mitRes, baseRes Result
	for i := 0; i < 64; i++ {
		pa := uint64(i%4) * rowStride // ping-pong: all misses, one bank group
		if _, err := c.Do(Access{PA: pa}); err != nil {
			t.Fatal(err)
		}
		if _, err := base.Do(Access{PA: pa}); err != nil {
			t.Fatal(err)
		}
	}
	mitRes, baseRes = c.Result(), base.Result()
	if mitRes.MitigationRefreshes != mitRes.RowMisses {
		t.Fatalf("refreshes = %d, want one per miss (%d)", mitRes.MitigationRefreshes, mitRes.RowMisses)
	}
	if baseRes.MitigationRefreshes != 0 {
		t.Fatalf("unmitigated run reported %d refreshes", baseRes.MitigationRefreshes)
	}
	if mitRes.TotalNs <= baseRes.TotalNs {
		t.Fatalf("mitigated run not slower: %v <= %v ns", mitRes.TotalNs, baseRes.TotalNs)
	}
	if para.Overhead().NeighborRefreshes != mitRes.MitigationRefreshes {
		t.Fatalf("mitigation ledger %d != controller ledger %d",
			para.Overhead().NeighborRefreshes, mitRes.MitigationRefreshes)
	}
}

func TestNilMitigationPathUnchanged(t *testing.T) {
	// The hook must be invisible when no mitigation is configured: results
	// with a nil Mitigation are bit-identical to the pre-hook behaviour,
	// which the jitter-seeded comparison pins down to the last float.
	g := tinyGeometry()
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config) Result {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		total := uint64(g.TotalBytes())
		for i := 0; i < 500; i++ {
			pa := (rng.Uint64() % total) &^ (geometry.CacheLineSize - 1)
			if _, err := c.Do(Access{PA: pa, ThinkNs: 2}); err != nil {
				t.Fatal(err)
			}
		}
		return c.Result()
	}
	a := run(Config{Mapper: m, Timing: DDR4_2933(), MLPWindow: 8, JitterSeed: 3})
	b := run(Config{Mapper: m, Timing: DDR4_2933(), MLPWindow: 8, JitterSeed: 3, Mitigation: nil})
	if a != b {
		t.Fatalf("nil-mitigation results diverge:\n%+v\n%+v", a, b)
	}
}

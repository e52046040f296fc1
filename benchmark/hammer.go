package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

// hammerGeometry is the reduced security geometry of the root benches: the
// full two-socket topology with 4096-row banks and 512-row subarrays, so a
// subarray group is 64 MiB and every boot is cheap.
func hammerGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets: 2, CoresPerSocket: 8, DIMMsPerSocket: 2, RanksPerDIMM: 2,
		BanksPerRank: hammerBanksPerRank, RowsPerBank: 4096, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

const (
	hammerBanksPerRank = 4
	hammerVMBytes      = 64 * geometry.MiB
	// chunkQuantum is the ACT-granularity quantum of the chunked half.
	chunkQuantum = 1000
)

// hammerPatterns is how many patterns each of a host's two campaigns
// (plain and chunked) tries.
func hammerPatterns(sz size) int {
	if sz == sizeSmoke {
		return 1
	}
	return 3
}

// hammerCall is one Target.Hammer call as it reached the VM, captured for
// the replay ladder; count < 0 marks the end of a refresh window.
type hammerCall struct {
	gpa    uint64
	bank   int32 // module-flat: rank*BanksPerRank+bank
	row    int32
	count  int32
	openNs int32
}

// countingTarget forwards every attack.Target call unchanged to the target
// it wraps, counting calls. With a tracer it also opens one span per run of
// same-kind calls (a pattern's fills, one window's hammering, its checks), so
// no timer sits next to an individual ~100 ns Hammer call.
type countingTarget struct {
	inner attack.Target
	tr    *tracer

	open  string // kind of the currently open span
	inRun int64  // calls in it

	hammers, acts, fills, checks, windows int64
	// calls, when non-nil, captures every Hammer call and window end.
	calls *[]hammerCall
}

// enter closes the open span if the call kind changed and opens the next.
func (t *countingTarget) enter(layer, kind string) {
	if t.tr == nil {
		return
	}
	if t.open != kind {
		t.flush()
		t.tr.begin(layer, kind)
		t.open = kind
	}
	t.inRun++
}

// flush closes the open span, if any.
func (t *countingTarget) flush() {
	if t.tr != nil && t.open != "" {
		t.tr.end(t.inRun)
		t.open, t.inRun = "", 0
	}
}

func (t *countingTarget) Rows() []attack.RowRef { return t.inner.Rows() }

func (t *countingTarget) Hammer(r attack.RowRef, count int, openNs int64) error {
	t.enter("attack", "hammer")
	t.hammers++
	t.acts += int64(count)
	if t.calls != nil {
		*t.calls = append(*t.calls, hammerCall{
			gpa: r.Addr, bank: int32(r.Bank.Rank*hammerBanksPerRank + r.Bank.Bank),
			row: int32(r.Row), count: int32(count), openNs: int32(openNs),
		})
	}
	return t.inner.Hammer(r, count, openNs)
}

func (t *countingTarget) FillRow(r attack.RowRef, pat byte) error {
	t.enter("attack", "fill")
	t.fills++
	return t.inner.FillRow(r, pat)
}

func (t *countingTarget) CheckRow(r attack.RowRef, pat byte) ([]attack.Corruption, error) {
	t.enter("attack", "check")
	t.checks++
	return t.inner.CheckRow(r, pat)
}

func (t *countingTarget) EndWindow() {
	t.enter("dram", "refresh_window")
	t.windows++
	if t.calls != nil {
		*t.calls = append(*t.calls, hammerCall{count: -1})
	}
	t.inner.EndWindow()
}

// hammerHost is one (DIMM profile, hypervisor mode) machine with an attacker
// VM next to a victim VM.
type hammerHost struct {
	prof     dram.Profile
	mode     core.Mode
	h        *core.Hypervisor
	attacker *core.VM
	calls    []hammerCall // capture runs only
}

func bootHammerHost(prof dram.Profile, mode core.Mode) (*hammerHost, error) {
	h, err := core.Boot(core.Config{
		Geometry:      hammerGeometry(),
		Profiles:      []dram.Profile{prof},
		EPTProtection: ept.GuardRows,
	}, mode)
	if err != nil {
		return nil, err
	}
	hh := &hammerHost{prof: prof, mode: mode, h: h}
	for _, name := range []string{"attacker", "victim"} {
		vm, err := h.CreateVM(kvmProc, core.VMSpec{Name: name, Socket: 0, MemoryBytes: hammerVMBytes})
		if err != nil {
			return nil, fmt.Errorf("%s/%s %s: %w", prof.Name, mode, name, err)
		}
		if name == "attacker" {
			hh.attacker = vm
		}
	}
	return hh, nil
}

// hammerWorld is one hammer-contain trial: DIMM profiles A-F, each booted
// once under Siloz and once under the baseline.
type hammerWorld struct {
	hosts    []*hammerHost
	seed     int64
	patterns int
	tr       *tracer
	capture  bool // keep every Hammer call, for the replay ladder
}

func buildHammer(seed int64, sz size, tr *tracer) (world, error) { return newHammerWorld(seed, sz, tr) }

func newHammerWorld(seed int64, sz size, tr *tracer) (*hammerWorld, error) {
	w := &hammerWorld{seed: seed, patterns: hammerPatterns(sz), tr: tr}
	for _, prof := range dram.EvaluationProfiles() {
		for _, mode := range []core.Mode{core.ModeSiloz, core.ModeBaseline} {
			hh, err := bootHammerHost(prof, mode)
			if err != nil {
				w.close()
				return nil, err
			}
			w.hosts = append(w.hosts, hh)
		}
	}
	return w, nil
}

func (w *hammerWorld) run(_ context.Context) (*outcome, error) {
	o := &outcome{sim: map[string]float64{}, layer: map[string]float64{}}
	var b strings.Builder
	var hammers, acts int64
	var tried, effective, flips, outside, baselineEscapes int
	for hi, hh := range w.hosts {
		// Half of each host's patterns go through the plain VM target and
		// half through ACT-granularity quanta; the counting wrapper sits
		// innermost, so an op is a Hammer call as it reaches the VM.
		//
		// The fuzzer's own seed and the attacked bank are fixed per campaign:
		// pattern shapes differ several-fold in Hammer calls per row scanned,
		// and banks differ in how many weak cells they hold (each flip is an
		// append to a log), so seeding either would change the operation mix,
		// not just the inputs. The run's seed picks the data every campaign
		// fills its rows with, hence which of the weak cells' bits flip.
		for half, chunked := range []bool{false, true} {
			campaign := 2*hi + half
			fill := rand.New(rand.NewSource(salted(w.seed, saltFuzzer) + int64(campaign))).Intn(256)
			vt := &attack.VMTarget{VM: hh.attacker, BankIndex: campaign % hammerGeometry().BanksPerSocket()}
			ct := &countingTarget{inner: vt, tr: w.tr}
			if w.capture {
				ct.calls = &hh.calls
			}
			var target attack.Target = ct
			if chunked {
				target = attack.Chunked(ct, chunkQuantum)
			}
			fz := attack.NewFuzzer(attack.FuzzerConfig{
				Patterns:          w.patterns,
				WindowsPerPattern: 2,
				MaxActsPerWindow:  hh.prof.MaxActsPerWindow * 9 / 10,
				FillPattern:       byte(fill),
				Seed:              1 + int64(campaign),
			})
			w.tr.begin("attack", "fuzzer_run")
			rep, err := fz.Run(target)
			ct.flush()
			w.tr.end(int64(rep.PatternsTried))
			if err != nil {
				o.failed++
				fmt.Fprintf(&b, "%s/%s error: %v\n", hh.prof.Name, hh.mode, err)
				continue
			}
			tried += rep.PatternsTried
			effective += rep.EffectivePatterns
			hammers += ct.hammers
			acts += ct.acts
			fmt.Fprintf(&b, "%s/%s chunked=%v tried=%d effective=%d corruptions=%d best=%s hammers=%d acts=%d\n",
				hh.prof.Name, hh.mode, chunked, rep.PatternsTried, rep.EffectivePatterns, len(rep.Corruptions),
				rep.BestPattern, ct.hammers, ct.acts)
		}
		// Ground truth: where every flip physically landed.
		mem := hh.h.Memory()
		var in, out int
		for _, f := range mem.Flips() {
			pa, err := mem.FlipPhys(f)
			if err != nil {
				return nil, err
			}
			if hh.attacker.InDomain(pa) || hh.attacker.OwnsHPA(pa) {
				in++
			} else {
				out++
			}
		}
		flips += in + out
		if hh.mode == core.ModeSiloz {
			outside += out
		} else {
			baselineEscapes += out
		}
		fmt.Fprintf(&b, "%s/%s flips inside=%d outside=%d\n", hh.prof.Name, hh.mode, in, out)
	}
	o.ops = hammers
	o.sim["sim_flips_outside"] = float64(outside)
	o.layer["attack.hammer_calls"] = float64(hammers)
	o.layer["attack.effective_pattern_frac"] = float64(effective) / float64(max(tried, 1))
	o.layer["dram.acts_per_call"] = float64(acts) / float64(max(hammers, 1))
	o.layer["dram.flips_total"] = float64(flips)
	o.layer["hammer.baseline_escapes"] = float64(baselineEscapes)
	o.report = b.String()
	return o, nil
}

func (w *hammerWorld) check(o *outcome) error {
	if o.failed != 0 {
		return fmt.Errorf("%d campaigns failed:\n%s", o.failed, o.report)
	}
	if n := o.sim["sim_flips_outside"]; n != 0 {
		return fmt.Errorf("%v flips escaped the attacker's domain under Siloz:\n%s", n, o.report)
	}
	if o.layer["hammer.baseline_escapes"] < 1 {
		return fmt.Errorf("no flip left the attacker's memory on the baseline: the attack no longer works:\n%s", o.report)
	}
	return nil
}

func (w *hammerWorld) close() {
	for _, hh := range w.hosts {
		hh.h.Shutdown()
	}
}

var hammerContain = &workloadDef{
	name:   "hammer-contain",
	op:     "Target.Hammer call",
	why:    "Attack plane: attack.Fuzzer -> core.VM.Hammer -> dram.ActivatePhys -> rowcount/TRR/disturbance plus FillRow/CheckRow scans, DIMMs A-F under Siloz and baseline; memctrl is never touched.",
	build:  buildHammer,
	ladder: hammerLadder,
}

// hammerLadder captures every Hammer call of one untimed trial, then replays
// the calls on freshly booted hosts one layer at a time: VM.Translate,
// Memory.ActivatePhys (with the refresh windows in place), the in-DRAM TRR
// sampler and a rowcount table fed the same activations, and Mapper.Encode
// of the hammered rows.
func hammerLadder(ctx context.Context, seed int64, sz size, tr *tracer, layer map[string]float64) error {
	captured, err := newHammerWorld(seed, sz, nil)
	if err != nil {
		return err
	}
	defer captured.close()
	captured.capture = true
	if _, err := captured.run(ctx); err != nil {
		return err
	}
	replay, err := newHammerWorld(seed, sz, nil)
	if err != nil {
		return err
	}
	defer replay.close()

	var failed firstErr
	g := hammerGeometry()
	var trrRate, trrActs float64
	for hi, hh := range replay.hosts {
		calls := captured.hosts[hi].calls
		mem, mapper := hh.h.Memory(), hh.h.Memory().Mapper()
		hpas := make([]uint64, 0, len(calls))
		acts := make([]mitigation.Activation, 0, len(calls))
		hammers := 0
		for _, c := range calls {
			if c.count >= 0 {
				hammers++
			}
		}
		tr.rung("core", "translate", hammers, func() {
			for _, c := range calls {
				if c.count < 0 {
					hpas = append(hpas, 0)
					continue
				}
				hpa, err := hh.attacker.Translate(c.gpa)
				failed.note(err)
				hpas = append(hpas, hpa)
			}
		})
		tr.rung("dram", "activate", hammers, func() {
			for i, c := range calls {
				if c.count < 0 {
					mem.Refresh()
					continue
				}
				failed.note(mem.ActivatePhys(hpas[i], int(c.count), int64(c.openNs)))
			}
		})
		for _, c := range calls {
			if c.count >= 0 {
				acts = append(acts, mitigation.Activation{Bank: int(c.bank), Row: int(c.row), Count: int(c.count), OpenNs: int64(c.openNs)})
			}
		}
		if p := hh.prof; p.TRRTableSize > 0 {
			trr := mitigation.NewTRR(g.BanksPerDIMM(), p.TRRTableSize, p.TRRInterval)
			rate := observeRung(tr, "trr", trr, acts)
			var n float64
			for _, ev := range acts {
				n += float64(ev.Count)
			}
			trrRate += rate * n
			trrActs += n
		}
		rowcountRung(tr, acts)
		tr.rung("addr", "encode", len(acts), func() {
			for _, ev := range acts {
				_, err := mapper.Encode(geometry.MediaAddr{
					Bank: geometry.BankID{Rank: ev.Bank / g.BanksPerRank, Bank: ev.Bank % g.BanksPerRank}, Row: ev.Row,
				})
				failed.note(err)
			}
		})
	}
	if trrActs > 0 {
		layer["mitigation.refreshes_per_kact.trr"] = trrRate / trrActs
	}
	if failed.err != nil {
		return fmt.Errorf("hammer ladder: %w", failed.err)
	}
	return nil
}

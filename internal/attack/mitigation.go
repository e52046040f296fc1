package attack

// Head-to-head mitigation trials: the same attacker runs the same seeded
// campaign against a machine deploying each candidate Rowhammer defense —
// PARA, Silver Bullet, CATT guard bands, Siloz subarray-group isolation,
// or nothing — and every resulting flip is attributed to the memory it
// corrupted. The trial is the protection half of the mitigation-matrix
// experiment; the overhead half (refresh energy, blocked capacity,
// workload slowdown) is read off the same machine afterwards.
//
// The campaign has three phases, all driven from one goroutine so a fixed
// seed reproduces the run bit for bit:
//
//  1. Edge hammering: repeated sub-threshold bursts against the rows at
//     the attacker's extent boundaries — the textbook inter-tenant attack.
//     Bursts stay below the flip threshold individually so activation-plane
//     defenses get the reaction window real hardware gives them; only
//     sustained accumulation across bursts flips bits.
//  2. Blacksmith fuzzing: synthesized non-uniform patterns inside the
//     attacker's own rows, the TRR-evasion workload of §7.
//  3. Lifecycle churn: more edge bursts interleaved with balloon-backed
//     resizes of the victim, probing whether the defense's placement
//     guarantees survive frames changing owners.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geometry"
)

// MitigationTrialConfig parameterizes one defended-machine trial.
type MitigationTrialConfig struct {
	// Core is the lab machine; Core.Mitigation selects the defense under
	// test and the hypervisor mode follows it (core.BootMitigated).
	Core core.Config
	// Seed drives every random choice.
	Seed int64
	// FuzzPatterns is the Blacksmith patterns synthesized in phase 2
	// (default 6).
	FuzzPatterns int
	// ChurnRounds is the resize cycles of phase 3 (default 2).
	ChurnRounds int
}

const (
	// trialVMBytes sizes the trial's attacker and victim VMs.
	trialVMBytes = 64 * geometry.MiB
	// trialBurstActs is the per-burst activation count for edge and churn
	// bursts. It must sit below the profile's flip threshold so defenses
	// can react between bursts.
	trialBurstActs = 1000
	// trialEdgeBursts is how many consecutive bursts hit each edge row
	// within one refresh window.
	trialEdgeBursts = 24
	// trialEdgeTargets caps how many boundary rows are attacked per phase:
	// both ends of the attacker's first and last row runs.
	trialEdgeTargets = 4
)

func (c *MitigationTrialConfig) normalize() {
	if c.FuzzPatterns <= 0 {
		c.FuzzPatterns = 6
	}
	if c.ChurnRounds <= 0 {
		c.ChurnRounds = 2
	}
}

// MitigationTrialResult attributes every flip of one trial and carries the
// defense's overhead ledger. Protection failed iff Escapes() > 0.
type MitigationTrialResult struct {
	// Kind is the deployed defense's row label.
	Kind string

	// PatternsTried / EffectivePatterns summarize the Blacksmith phase
	// from the attacker's view.
	PatternsTried     int
	EffectivePatterns int
	// HammerBursts counts edge and churn bursts landed.
	HammerBursts int

	// FlipLedger attributes every flip of the trial; protection failed
	// iff Escapes() > 0.
	FlipLedger
	// VictimCorruptions counts stamped victim bytes that diverged.
	VictimCorruptions int
	// Denied counts attacker operations the machine refused.
	Denied int

	// Overhead ledger: proactive neighbourhood refreshes injected, budget
	// exhaustions suffered, bytes of capacity the defense blocked, and
	// total activations observed (the energy denominator).
	Refreshes    int
	Exhaustions  int
	BlockedBytes uint64
	Activations  int64
	// Health is the defense's degradation report, empty when intact.
	Health string
}

// RunMitigationTrial boots the defended machine, runs the three campaign
// phases, and attributes every flip.
func RunMitigationTrial(cfg MitigationTrialConfig) (*MitigationTrialResult, error) {
	cfg.normalize()
	h, err := core.BootMitigated(cfg.Core)
	if err != nil {
		return nil, err
	}
	defer h.Shutdown()
	d, err := newDuel(h, trialVMBytes)
	if err != nil {
		return nil, err
	}
	attacker, victim := d.attacker, d.victim
	res := &MitigationTrialResult{Kind: cfg.Core.Mitigation.Name()}
	// Every phase drives the machine through a chunking wrapper: a
	// Go-level Hammer call is a modelling convenience, but the memory
	// controller observes individual ACT commands, so a defense must get
	// to react within a long burst — not only after it has fully landed.
	target := Chunked(&VMTarget{VM: attacker}, trialBurstActs)

	// Victim working set: stamped pages that must survive the campaign.
	// Only the low half is stamped — the churn phase balloons the top half
	// away and back, and re-admitted frames arrive scrubbed by design.
	stampPages := int(trialVMBytes / geometry.PageSize2M / 4)
	if stampPages > 4 {
		stampPages = 4
	}
	mirror := map[uint64][]byte{}
	for p := 0; p < stampPages; p++ {
		gpa := uint64(p) * geometry.PageSize2M
		data := campaignStamp(CampaignSeed(cfg.Seed, 10+p), 8*geometry.KiB)
		if err := victim.WriteGuest(gpa, data); err != nil {
			return nil, err
		}
		mirror[gpa] = data
	}

	// Phase 1: edge hammering.
	edges := edgeRows(target, trialEdgeTargets)
	hammerEdges := func() {
		for _, r := range edges {
			for b := 0; b < trialEdgeBursts; b++ {
				if err := target.Hammer(r, trialBurstActs, 0); err != nil {
					res.Denied++
					break
				}
			}
			res.HammerBursts += trialEdgeBursts
			target.EndWindow()
		}
	}
	hammerEdges()

	// Phase 2: Blacksmith fuzzing inside the attacker's rows.
	fz := DefaultFuzzerConfig()
	fz.Patterns = cfg.FuzzPatterns
	fz.Seed = CampaignSeed(cfg.Seed, 1)
	rep, err := NewFuzzer(fz).Run(target)
	if err != nil {
		return nil, err
	}
	res.PatternsTried = rep.PatternsTried
	res.EffectivePatterns = rep.EffectivePatterns

	// Phase 3: churn — edge bursts across balloon-backed victim resizes.
	for round := 0; round < cfg.ChurnRounds; round++ {
		if _, err := h.ResizeVM("victim", trialVMBytes/2); err != nil {
			return nil, fmt.Errorf("churn round %d shrink: %w", round, err)
		}
		hammerEdges()
		if _, err := h.ResizeVM("victim", trialVMBytes); err != nil {
			return nil, fmt.Errorf("churn round %d grow: %w", round, err)
		}
		hammerEdges()
	}

	// Victim integrity on the stamped pages.
	got := make([]byte, 8*geometry.KiB)
	for gpa, want := range mirror {
		if err := victim.ReadGuest(gpa, got); err != nil {
			return nil, err
		}
		for i := range got {
			if got[i] != want[i] {
				res.VictimCorruptions++
			}
		}
	}

	if err := d.settle(res); err != nil {
		return nil, err
	}
	return res, nil
}

// duel is the machine every head-to-head trial runs on: one hypervisor with
// an attacker VM and a victim VM of equal size on socket 0.
type duel struct {
	h                *core.Hypervisor
	attacker, victim *core.VM
}

// newDuel admits the two tenants onto a freshly booted machine.
func newDuel(h *core.Hypervisor, vmBytes uint64) (*duel, error) {
	admit := func(name string) (*core.VM, error) {
		return h.CreateVM(core.KVMProcess(), core.VMSpec{Name: name, Socket: 0, MemoryBytes: vmBytes})
	}
	attacker, err := admit("attacker")
	if err != nil {
		return nil, err
	}
	victim, err := admit("victim")
	if err != nil {
		return nil, err
	}
	return &duel{h: h, attacker: attacker, victim: victim}, nil
}

// settle closes a trial's books: every flip of the whole campaign is
// attributed against the machine's final ownership map, and the defense's
// overhead ledger is read off the same machine.
func (d *duel) settle(res *MitigationTrialResult) error {
	var err error
	if res.FlipLedger, err = AttributeFlips(d.h, d.attacker, d.victim); err != nil {
		return err
	}
	mem := d.h.Memory()
	ov := mem.DefenseOverhead()
	res.Refreshes = ov.NeighborRefreshes
	res.Exhaustions = ov.Exhaustions
	res.BlockedBytes = d.h.MitigationBlockedBytes() + ov.BlockedBytes
	res.Activations = mem.TotalActivations()
	if err := mem.DefenseHealth(); err != nil {
		res.Health = err.Error()
	}
	return nil
}

// FlipLedger attributes every flip a machine has recorded to the memory it
// corrupted. AttackerFlips landed in the attacker's own memory — self-damage
// the threat model tolerates. GuardFlips landed in memory a defense
// deliberately sacrificed (CATT guard bands, Siloz/EPT guard rows, offlined
// pages) — absorbed by design. VictimFlips landed in another tenant's memory
// and StrayFlips anywhere else (free pool, host structures); both are
// containment failures.
type FlipLedger struct {
	AttackerFlips, GuardFlips, VictimFlips, StrayFlips int
}

// Escapes counts flips outside both the attacker's memory and the defense's
// sacrificial guard capacity — the corruption a deployed mitigation exists
// to prevent.
func (l FlipLedger) Escapes() int { return l.VictimFlips + l.StrayFlips }

// Outside counts every flip that left the attacker's own memory.
func (l FlipLedger) Outside() int { return l.GuardFlips + l.VictimFlips + l.StrayFlips }

// AttributeFlips classifies every flip h's memory has recorded against the
// machine's current ownership map. It is the one flip-attribution routine:
// trials, campaigns and the CLIs all account containment through it.
func AttributeFlips(h *core.Hypervisor, attacker *core.VM, victims ...*core.VM) (FlipLedger, error) {
	var l FlipLedger
	guard := map[uint64]bool{}
	for _, vm := range append([]*core.VM{attacker}, victims...) {
		for _, pa := range vm.GuardPages() {
			guard[pa] = true
		}
	}
	owns := func(vm *core.VM, pa uint64) bool { return vm.OwnsHPA(pa) || vm.InDomain(pa) }
	offlined := h.OfflinedRanges()
	mem := h.Memory()
flips:
	for _, f := range mem.Flips() {
		pa, err := mem.FlipPhys(f)
		if err != nil {
			return l, err
		}
		if owns(attacker, pa) {
			l.AttackerFlips++
			continue
		}
		for _, v := range victims {
			if owns(v, pa) {
				l.VictimFlips++
				continue flips
			}
		}
		if guard[pa&^uint64(geometry.PageSize2M-1)] {
			l.GuardFlips++
			continue
		}
		for _, r := range offlined {
			if r.Contains(pa) {
				l.GuardFlips++
				continue flips
			}
		}
		l.StrayFlips++
	}
	return l, nil
}

// BlacksmithTrialConfig parameterizes RunBlacksmithTrial.
type BlacksmithTrialConfig struct {
	// Core is the machine; Core.Mitigation, when set, is the deployed
	// defense.
	Core core.Config
	// Mode is the hypervisor mode the machine boots in.
	Mode core.Mode
	// VMBytes sizes the attacker and victim VMs.
	VMBytes uint64
	// Fuzzer is the campaign the attacker VM runs.
	Fuzzer FuzzerConfig
}

// RunBlacksmithTrial boots a fresh machine, runs one Blacksmith fuzzing
// campaign from inside the attacker VM, and returns both the omniscient
// ground truth (every flip attributed, the defense's overhead ledger) and
// the attacker's own view of the campaign. Trials share no state, so
// repetitions may fan out in parallel.
func RunBlacksmithTrial(cfg BlacksmithTrialConfig) (*MitigationTrialResult, Report, error) {
	h, err := core.Boot(cfg.Core, cfg.Mode)
	if err != nil {
		return nil, Report{}, err
	}
	defer h.Shutdown()
	d, err := newDuel(h, cfg.VMBytes)
	if err != nil {
		return nil, Report{}, err
	}
	target := Target(&VMTarget{VM: d.attacker})
	if cfg.Core.Mitigation.HasRowDefense() {
		// Defended controllers observe individual ACT commands; chunk the
		// fuzzer's bursts so the defense gets its real reaction window.
		target = Chunked(target, 1000)
	}
	rep, err := NewFuzzer(cfg.Fuzzer).Run(target)
	if err != nil {
		return nil, rep, err
	}
	res := &MitigationTrialResult{
		Kind:              cfg.Core.Mitigation.Name(),
		PatternsTried:     rep.PatternsTried,
		EffectivePatterns: rep.EffectivePatterns,
	}
	if err := d.settle(res); err != nil {
		return nil, rep, err
	}
	return res, rep, nil
}

// chunkedTarget splits every Hammer call into quantum-sized slices. The
// dram model accrues a whole ActivateRow call before the defense chain
// observes it, so an unchunked over-threshold burst would flip bits before
// any activation-plane defense could react — a window real hardware never
// offers, because the controller sees every ACT. Chunking restores
// command-granularity observation without changing flip outcomes: the
// disturbance accrual is additive across calls.
type chunkedTarget struct {
	Target
	quantum int
}

// Chunked wraps t so every Hammer call splits into quantum-sized slices —
// the command-granularity observation the trial uses, exported for drivers
// attacking machines with activation-plane defenses.
func Chunked(t Target, quantum int) Target {
	return &chunkedTarget{Target: t, quantum: quantum}
}

func (t *chunkedTarget) Hammer(r RowRef, count int, openNs int64) error {
	for count > 0 {
		n := count
		if n > t.quantum {
			n = t.quantum
		}
		if err := t.Target.Hammer(r, n, openNs); err != nil {
			return err
		}
		count -= n
	}
	return nil
}

// edgeRows picks up to limit boundary rows of the attacker's runs: the
// first and last row of the first and last run, then inward. Boundary rows
// neighbour memory the attacker does not own — whether hammering them
// corrupts that memory is exactly what distinguishes the defenses.
func edgeRows(t Target, limit int) []RowRef {
	allRuns := runs(t.Rows())
	if len(allRuns) == 0 {
		return nil
	}
	var out []RowRef
	seen := map[int]bool{}
	add := func(r RowRef) {
		if len(out) < limit && !seen[r.Row] {
			seen[r.Row] = true
			out = append(out, r)
		}
	}
	first, last := allRuns[0], allRuns[len(allRuns)-1]
	add(first[0])
	add(last[len(last)-1])
	if len(first) > 1 {
		add(first[1])
	}
	if len(last) > 1 {
		add(last[len(last)-2])
	}
	return out
}

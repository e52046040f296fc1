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
	"slices"
	"strings"

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
	// The scorecard counts edge and churn bursts, attributes every flip,
	// and counts refused operations and diverged victim bytes.
	scorecard

	// Overhead ledger: proactive neighbourhood refreshes injected, budget
	// exhaustions suffered, bytes of capacity the defense blocked, and
	// total activations observed (the energy denominator).
	Refreshes    int
	Exhaustions  int
	BlockedBytes uint64
	Activations  int64
	// Health is the defense's degradation report, empty when intact; summed
	// trials join their distinct reports, sorted.
	Health string
}

// Add accumulates o into r, for a defense's trials aggregated across
// repetitions.
func (r *MitigationTrialResult) Add(o *MitigationTrialResult) {
	r.PatternsTried += o.PatternsTried
	r.EffectivePatterns += o.EffectivePatterns
	r.scorecard.add(o.scorecard)
	r.Refreshes += o.Refreshes
	r.Exhaustions += o.Exhaustions
	r.BlockedBytes += o.BlockedBytes
	r.Activations += o.Activations
	if r.Health == "" {
		r.Health = o.Health
	} else if hs := strings.Split(r.Health, "; "); o.Health != "" && !slices.Contains(hs, o.Health) {
		hs = append(hs, o.Health)
		slices.Sort(hs)
		r.Health = strings.Join(hs, "; ")
	}
}

// RunMitigationTrial boots the defended machine, runs the three campaign
// phases, and attributes every flip.
func RunMitigationTrial(cfg MitigationTrialConfig) (*MitigationTrialResult, error) {
	cfg.normalize()
	return trial(core.BootMitigated, cfg.Core, trialVMBytes, func(m *machine, res *MitigationTrialResult) error {
		// Every phase drives the machine through a chunking wrapper: a
		// Go-level Hammer call is a modelling convenience, but the memory
		// controller observes individual ACT commands, so a defense must get
		// to react within a long burst — not only after it has fully landed.
		target := Chunked(m.target, trialBurstActs)

		// Victim working set: stamped pages that must survive the campaign.
		// They sit in the low half — the churn phase balloons the top half
		// away and back, and re-admitted frames arrive scrubbed: every frame
		// that leaves a VM is, flips included.
		stamps, err := m.stampVictim(cfg.Seed)
		if err != nil {
			return err
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
			return err
		}
		res.PatternsTried, res.EffectivePatterns = rep.PatternsTried, rep.EffectivePatterns

		// Phase 3: churn — edge bursts across balloon-backed victim resizes.
		for round := 0; round < cfg.ChurnRounds; round++ {
			if _, err := m.h.ResizeVM("victim", trialVMBytes/2); err != nil {
				return fmt.Errorf("churn round %d shrink: %w", round, err)
			}
			hammerEdges()
			if _, err := m.h.ResizeVM("victim", trialVMBytes); err != nil {
				return fmt.Errorf("churn round %d grow: %w", round, err)
			}
			hammerEdges()
		}
		return res.checkStamps(m.victim, stamps)
	})
}

// trial is every head-to-head trial: boot brings the machine up from cfg,
// attacker and victim tenants of vmBytes each are admitted, body runs, and
// the books close — every flip attributed against the machine's final
// ownership map, the defense's overhead ledger read off the same machine.
func trial(boot func(core.Config) (*core.Hypervisor, error), cfg core.Config, vmBytes uint64,
	body func(*machine, *MitigationTrialResult) error) (*MitigationTrialResult, error) {
	h, err := boot(cfg)
	if err != nil {
		return nil, err
	}
	defer h.Shutdown()
	res := &MitigationTrialResult{Kind: cfg.Mitigation.Name()}
	m, err := newMachine(h, vmBytes, &res.scorecard)
	if err != nil {
		return nil, err
	}
	if m.victim, err = m.admit("victim"); err != nil {
		return nil, err
	}
	if err := body(m, res); err != nil {
		return nil, err
	}
	if err := m.settle(); err != nil {
		return nil, err
	}
	mem := h.Memory()
	ov := mem.DefenseOverhead()
	res.Refreshes, res.Exhaustions = ov.NeighborRefreshes, ov.Exhaustions
	res.BlockedBytes = h.MitigationBlockedBytes() + ov.BlockedBytes
	res.Activations = mem.TotalActivations()
	if err := mem.DefenseHealth(); err != nil {
		res.Health = err.Error()
	}
	return res, nil
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
	var rep Report
	boot := func(c core.Config) (*core.Hypervisor, error) { return core.Boot(c, cfg.Mode) }
	res, err := trial(boot, cfg.Core, cfg.VMBytes, func(m *machine, res *MitigationTrialResult) error {
		target := m.target
		if cfg.Core.Mitigation.HasRowDefense() {
			// Defended controllers observe individual ACT commands; chunk the
			// fuzzer's bursts so the defense gets its real reaction window.
			target = Chunked(target, 1000)
		}
		var err error
		rep, err = NewFuzzer(cfg.Fuzzer).Run(target)
		res.PatternsTried, res.EffectivePatterns = rep.PatternsTried, rep.EffectivePatterns
		return err
	})
	return res, rep, err
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

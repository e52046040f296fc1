package attack

// Adversarial lifecycle campaigns: Blacksmith-style hammering driven
// concurrently with the four VM-lifecycle windows where frames change
// owners, each preceded by the attacker's own mapping inference
// (InferAdjacency). The campaigns assert Siloz's containment invariant at
// every step — no flip outside the attacker's domain, audits clean, no
// unscrubbed frame ever observable — and each gap they found became a fix
// in core/migrate/fleet with a pinning regression test:
//
//   - migration: hammer inside every pre-copy round's OnRound window,
//     including the one between the final dirty drain and stop-and-copy
//     (the scrub-ledger hole; see TestMigrationScrubsDMAPoisonedFrame);
//   - balloon: hammer and probe while surrendered frames drain back to the
//     registry, between unmap and scrub-before-free;
//   - hotplug: probe adopted subarray-group nodes between the registry's
//     exclusive Expand and scrub-before-map;
//   - fleet: CATTmew-style double-ownership probes through cross-host
//     MoveVM's window where routing is committed to the destination but
//     the source copy still exists.
//
// Campaigns are deterministic: every interleaving runs through lifecycle
// hooks on one goroutine, and all randomness flows from the seeded RNG.

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/geometry"
	"repro/internal/migrate"
	"repro/internal/numa"
)

// campaignSeedSalt spaces per-campaign RNG streams; each consumer of
// randomness derives its own stream via CampaignSeed, never sharing one
// rand.Rand across hooks.
const campaignSeedSalt = 7919

// CampaignSeed derives the i-th stream from a base seed.
func CampaignSeed(base int64, i int) int64 { return base + int64(i)*campaignSeedSalt }

// Campaigns lists the lifecycle campaigns in canonical order.
func Campaigns() []string { return []string{"migration", "balloon", "hotplug", "fleet"} }

// CampaignConfig parameterizes one campaign run.
type CampaignConfig struct {
	// Core is the lab box configuration (deterministic profile expected).
	Core core.Config
	// Seed drives every random choice in the campaign.
	Seed int64
	// Rounds is the number of lifecycle iterations driven (default 2).
	Rounds int
	// VMBytes sizes the attacker and victim VMs (default 64 MiB — one
	// subarray-group node in the lab geometry).
	VMBytes uint64
}

const (
	// campaignHammerActs is the activation count per aggressor burst; it
	// must exceed the profile's threshold comfortably.
	campaignHammerActs = 20_000
	// campaignBurstRows is the number of aggressors hammered per lifecycle
	// window.
	campaignBurstRows = 4
	// campaignInferPairs bounds the adjacency triples probed before a
	// campaign.
	campaignInferPairs = 4
)

func (c *CampaignConfig) normalize() {
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.VMBytes == 0 {
		c.VMBytes = 64 * geometry.MiB
	}
}

// CampaignResult is one campaign's containment scorecard. A post-fix run
// must show CrossDomainFlips == WindowViolations == ScrubLeaks ==
// VictimCorruptions == AuditFailures == 0 while AttackerFlips and Denied
// stay non-zero (the attack ran and the isolation machinery pushed back).
type CampaignResult struct {
	Name   string
	Rounds int
	// HammerBursts counts aggressor bursts landed inside lifecycle
	// windows; AttackerFlips counts the resulting flips inside the
	// attacker's own domain (expected: the attack is real).
	HammerBursts  int
	AttackerFlips int
	// CrossDomainFlips counts flips observed outside the attacker's
	// domain — the inter-VM escape Siloz exists to prevent.
	CrossDomainFlips int
	// Denied counts probes the isolation machinery refused (unmapped
	// translations, stale DMA, operations rejected mid-move).
	Denied int
	// WindowViolations counts probes that reached state they must not
	// (e.g. a translation that still resolved mid-drain).
	WindowViolations int
	// ScrubLeaks counts freed or re-admitted frames observed non-zero.
	ScrubLeaks int
	// VictimCorruptions counts victim data words that diverged across a
	// lifecycle operation.
	VictimCorruptions int
	// AuditsPassed / AuditFailures tally isolation audits run after (and,
	// for the fleet campaign, inside) each window.
	AuditsPassed  int
	AuditFailures int
	// AdjacencyProbed / AdjacencyConfirmed report the attacker's mapping
	// inference preceding the campaign.
	AdjacencyProbed    int
	AdjacencyConfirmed int
}

// Add accumulates o's counters into r, for scorecards aggregated across
// repetitions or campaigns.
func (r *CampaignResult) Add(o *CampaignResult) {
	r.Rounds += o.Rounds
	r.HammerBursts += o.HammerBursts
	r.AttackerFlips += o.AttackerFlips
	r.CrossDomainFlips += o.CrossDomainFlips
	r.Denied += o.Denied
	r.WindowViolations += o.WindowViolations
	r.ScrubLeaks += o.ScrubLeaks
	r.VictimCorruptions += o.VictimCorruptions
	r.AuditsPassed += o.AuditsPassed
	r.AuditFailures += o.AuditFailures
	r.AdjacencyProbed += o.AdjacencyProbed
	r.AdjacencyConfirmed += o.AdjacencyConfirmed
}

// RunCampaign executes one named campaign and returns its scorecard.
func RunCampaign(name string, cfg CampaignConfig) (*CampaignResult, error) {
	cfg.normalize()
	if name == "fleet" {
		return runFleetCampaign(cfg)
	}
	env, err := newCampaignEnv(name, cfg)
	if err != nil {
		return nil, err
	}
	defer env.h.Shutdown()
	switch name {
	case "migration":
		err = runMigrationCampaign(env)
	case "balloon":
		err = runBalloonCampaign(env)
	case "hotplug":
		err = runHotplugCampaign(env)
	default:
		return nil, fmt.Errorf("attack: unknown campaign %q (have %v)", name, Campaigns())
	}
	if err != nil {
		return nil, fmt.Errorf("attack: campaign %s: %w", name, err)
	}
	return env.res, nil
}

// campaignEnv is the single-host campaign harness: one attacker VM with a
// confined VMTarget, plus the bookkeeping shared by all campaigns.
type campaignEnv struct {
	cfg      CampaignConfig
	h        *core.Hypervisor
	attacker *core.VM
	target   *VMTarget
	rng      *rand.Rand
	res      *CampaignResult
}

func newCampaignEnv(name string, cfg CampaignConfig) (*campaignEnv, error) {
	h, err := core.Boot(cfg.Core, core.ModeSiloz)
	if err != nil {
		return nil, err
	}
	attacker, err := h.CreateVM(core.KVMProcess(), core.VMSpec{
		Name: "attacker", Socket: 0, MemoryBytes: cfg.VMBytes,
	})
	if err != nil {
		h.Shutdown()
		return nil, err
	}
	env := &campaignEnv{
		cfg:      cfg,
		h:        h,
		attacker: attacker,
		target:   &VMTarget{VM: attacker},
		rng:      rngFrom(CampaignSeed(cfg.Seed, 1)),
		res:      &CampaignResult{Name: name},
	}
	// Mapping inference first: the attacker derives (and confirms) row
	// adjacency inside its own domain before spending hammer budget.
	rep, err := InferAdjacency(env.target, campaignHammerActs, campaignInferPairs, 0xAA, CampaignSeed(cfg.Seed, 2))
	if err != nil {
		h.Shutdown()
		return nil, err
	}
	env.res.AdjacencyProbed = rep.Probed
	env.res.AdjacencyConfirmed = rep.Confirmed
	// Inference flips are the attacker's own; start containment
	// accounting from a clean slate.
	h.Memory().ResetFlips()
	return env, nil
}

// hammerBurst drives campaignBurstRows seeded aggressors at full amplitude and
// closes the refresh window — one Blacksmith salvo inside a lifecycle
// window.
func (e *campaignEnv) hammerBurst() {
	rows := e.target.Rows()
	if len(rows) == 0 {
		return
	}
	for k := 0; k < campaignBurstRows; k++ {
		r := rows[e.rng.Intn(len(rows))]
		if err := e.target.Hammer(r, campaignHammerActs, 0); err != nil {
			e.res.Denied++
			continue
		}
	}
	// Every salvo also probes one activation beyond the attacker's RAM —
	// the EPT walk must refuse it in every lifecycle phase.
	if err := e.attacker.Hammer(e.cfg.VMBytes+geometry.PageSize2M, 1, 0); err != nil {
		e.res.Denied++
	} else {
		e.res.WindowViolations++
	}
	e.res.HammerBursts++
	e.target.EndWindow()
}

// audit runs the single-host isolation audit and tallies the outcome.
func (e *campaignEnv) audit() {
	if err := migrate.AuditIsolation(e.h); err != nil {
		e.res.AuditFailures++
	} else {
		e.res.AuditsPassed++
	}
}

// classifyFlips attributes every accumulated flip: inside the attacker's
// domain (expected) or outside it (the escape Siloz prevents), then resets
// the accumulator so each round scores separately.
func (e *campaignEnv) classifyFlips() {
	mem := e.h.Memory()
	for _, f := range mem.Flips() {
		pa, err := mem.FlipPhys(f)
		if err != nil {
			continue
		}
		if e.attacker.InDomain(pa) {
			e.res.AttackerFlips++
		} else {
			e.res.CrossDomainFlips++
		}
	}
	mem.ResetFlips()
}

// checkScrubbed reads the head of each listed frame and counts non-zero
// frames as scrub leaks.
func (e *campaignEnv) checkScrubbed(frames []uint64) {
	buf := make([]byte, 4*geometry.KiB)
	for _, hpa := range frames {
		if err := e.h.Memory().ReadPhys(hpa, buf); err != nil {
			continue
		}
		if !dram.AllZero(buf) {
			e.res.ScrubLeaks++
		}
	}
}

// campaignStamp yields a deterministic payload for victim data.
func campaignStamp(seed int64, n int) []byte {
	b := make([]byte, n)
	rngFrom(seed).Read(b)
	return b
}

// runMigrationCampaign hammers inside every pre-copy round of a live
// migration — OnRound fires after each round's dirty drain, so the final
// burst lands exactly in the window between the last TakeDirty and
// stop-and-copy. After each move: source frames must be scrubbed, victim
// data intact, the audit clean, and every flip inside the attacker domain.
func runMigrationCampaign(e *campaignEnv) error {
	h, cfg := e.h, e.cfg
	victim, err := h.CreateVM(core.KVMProcess(), core.VMSpec{
		Name: "victim", Socket: 0, MemoryBytes: cfg.VMBytes,
	})
	if err != nil {
		return err
	}
	// Victim working set: four patterned pages that must survive every
	// move byte-for-byte.
	mirror := map[int][]byte{}
	for p := 0; p < 4; p++ {
		data := campaignStamp(CampaignSeed(cfg.Seed, 10+p), 8*geometry.KiB)
		if err := victim.WriteGuest(uint64(p)*geometry.PageSize2M, data); err != nil {
			return err
		}
		mirror[p] = data
	}
	for round := 0; round < cfg.Rounds; round++ {
		srcPages := victim.RAMPages()
		dests, err := h.FreeNodes(0, cfg.VMBytes)
		if err != nil {
			return fmt.Errorf("no free destination nodes for round %d: %w", round, err)
		}
		stepRNG := rngFrom(CampaignSeed(cfg.Seed, 20+round))
		if _, err := h.MigrateVM(context.Background(), "victim", dests, core.MigrateOptions{
			StopPages: 1, MaxRounds: 8,
			GuestStep: func(r int) error {
				// The guest keeps running: dirty one page per round so the
				// attack windows stay open for a few rounds.
				if r >= 2 {
					return nil
				}
				stamp := make([]byte, 64)
				stepRNG.Read(stamp)
				gpa := uint64(4+stepRNG.Intn(4)) * geometry.PageSize2M
				return victim.WriteGuest(gpa, stamp)
			},
			OnRound: func(core.MigrateRound) { e.hammerBurst() },
		}); err != nil {
			return err
		}
		e.res.Rounds++
		e.checkScrubbed(srcPages)
		got := make([]byte, 8*geometry.KiB)
		for p, want := range mirror {
			if err := victim.ReadGuest(uint64(p)*geometry.PageSize2M, got); err != nil {
				return err
			}
			for i := range got {
				if got[i] != want[i] {
					e.res.VictimCorruptions++
				}
			}
		}
		e.audit()
		e.classifyFlips()
	}
	return h.DestroyVM("victim")
}

// runBalloonCampaign races the drain-back window: the balloon's
// stop-the-world probe points expose (a) the instant surrendered frames are
// unmapped but not yet scrubbed and (b) the instant they re-enter the free
// pool. The attacker hammers in both; the campaign asserts the surrendered
// range is unreachable in (a) and zero in (b), and that re-admitted frames
// arrive zero after deflate.
func runBalloonCampaign(e *campaignEnv) error {
	h, cfg := e.h, e.cfg
	victim, err := h.CreateVM(core.KVMProcess(), core.VMSpec{
		Name: "victim", Socket: 0, MemoryBytes: cfg.VMBytes,
	})
	if err != nil {
		return err
	}
	pages := int(cfg.VMBytes / geometry.PageSize2M)
	half := pages / 2
	secret := campaignStamp(CampaignSeed(cfg.Seed, 30), 4*geometry.KiB)
	for round := 0; round < cfg.Rounds; round++ {
		// The victim's secret lives in the pages the balloon will take.
		topHPAs := make([]uint64, 0, half)
		for p := pages - half; p < pages; p++ {
			gpa := uint64(p) * geometry.PageSize2M
			if err := victim.WriteGuest(gpa, secret); err != nil {
				return err
			}
			hpa, err := victim.Translate(gpa)
			if err != nil {
				return err
			}
			topHPAs = append(topHPAs, hpa)
		}
		probeGPA := uint64(pages-1) * geometry.PageSize2M
		h.SetLifecycleProbe(func(event string, vm *core.VM) {
			switch event {
			case core.ProbeBalloonUnmapped:
				// Frames hold the secret but every translation path must
				// already be gone (EPT and IOMMU alike).
				e.hammerBurst()
				if _, err := vm.TranslateUncached(probeGPA); err != nil {
					e.res.Denied++
				} else {
					e.res.WindowViolations++
				}
			case core.ProbeBalloonDrained:
				// Frames are back in the pool: scrub-before-free means
				// they must be zero from this instant on.
				e.hammerBurst()
				for _, hpa := range topHPAs {
					buf := make([]byte, 4*geometry.KiB)
					if err := h.Memory().ReadPhys(hpa, buf); err != nil {
						continue
					}
					if !dram.AllZero(buf) {
						e.res.ScrubLeaks++
					}
				}
			}
		})
		_, err := h.BalloonVM("victim", uint64(half)*geometry.PageSize2M)
		h.SetLifecycleProbe(nil)
		if err != nil {
			return err
		}
		e.res.Rounds++
		// Deflate: the re-admitted range must arrive zero, never a stale
		// frame with the old secret (or another tenant's bytes).
		if _, err := h.BalloonVM("victim", 0); err != nil {
			return err
		}
		got := make([]byte, 4*geometry.KiB)
		for p := pages - half; p < pages; p++ {
			if err := victim.ReadGuest(uint64(p)*geometry.PageSize2M, got); err != nil {
				return err
			}
			if !dram.AllZero(got) {
				e.res.ScrubLeaks++
			}
		}
		e.audit()
		e.classifyFlips()
	}
	return h.DestroyVM("victim")
}

// runHotplugCampaign targets the adoption window: an unowned guest node is
// pre-loaded with residue (modeling a prior tenant's frames the pool has
// not recycled), then a victim hot-plugs into it. The probe fires between
// the registry's exclusive Expand and scrub-before-map: the attacker
// hammers, and the campaign asserts the adopted range is not yet reachable
// and arrives fully zeroed once mapped.
func runHotplugCampaign(e *campaignEnv) error {
	h, cfg := e.h, e.cfg
	residue := campaignStamp(CampaignSeed(cfg.Seed, 40), 4*geometry.KiB)
	for round := 0; round < cfg.Rounds; round++ {
		name := fmt.Sprintf("victim-%d", round)
		victim, err := h.CreateVM(core.KVMProcess(), core.VMSpec{
			Name: name, Socket: 0, MemoryBytes: cfg.VMBytes,
		})
		if err != nil {
			return err
		}
		// Residue in the node the grow will adopt.
		for _, n := range h.Topology().NodesOnSocket(0, numa.GuestReserved) {
			if _, owned := h.Registry().OwnerOf(n.ID); owned {
				continue
			}
			for _, r := range n.Ranges {
				if err := h.Memory().WritePhys(r.Start, residue); err != nil {
					return err
				}
			}
		}
		oldTop := victim.Spec().MemoryBytes
		adopted := false
		h.SetLifecycleProbe(func(event string, vm *core.VM) {
			if event != core.ProbeHotplugAdopted {
				return
			}
			adopted = true
			e.hammerBurst()
			// The adopted frames belong to the victim's control group now
			// but must not be guest-visible until scrubbed and mapped.
			if _, err := vm.TranslateUncached(oldTop); err != nil {
				e.res.Denied++
			} else {
				e.res.WindowViolations++
			}
		})
		_, err = h.HotplugVM(name, cfg.VMBytes)
		h.SetLifecycleProbe(nil)
		if err != nil {
			return err
		}
		if !adopted {
			return fmt.Errorf("round %d: hotplug adopted no node; campaign vacuous", round)
		}
		e.res.Rounds++
		// Scrub-before-map: the hot-added range reads zero despite the
		// residue.
		got := make([]byte, 4*geometry.KiB)
		for gpa := oldTop; gpa < oldTop+cfg.VMBytes; gpa += geometry.PageSize2M {
			if err := victim.ReadGuest(gpa, got); err != nil {
				return err
			}
			if !dram.AllZero(got) {
				e.res.ScrubLeaks++
			}
		}
		e.audit()
		e.classifyFlips()
		if err := h.DestroyVM(name); err != nil {
			return err
		}
	}
	return nil
}

// runFleetCampaign mounts CATTmew-style double-ownership probes through
// cross-host MoveVM: inside the window where routing is committed to the
// destination but the source copy still exists, the attacker hammers,
// audits, and pokes the control plane; around it, a passthrough device's
// pre-move DMA must follow the VM (dirty-log visibility) and its stale
// post-move translations must be dead.
func runFleetCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	res := &CampaignResult{Name: "fleet"}
	c, err := fleet.New(fleet.Config{
		Hosts:  2,
		Core:   cfg.Core,
		Policy: fleet.FirstFit{},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()
	spec := func(name string) core.VMSpec {
		return core.VMSpec{Name: name, MemoryBytes: cfg.VMBytes, MinMemoryBytes: cfg.VMBytes, VCPUs: 1}
	}
	if _, err := c.Admit(ctx, core.KVMProcess(), spec("victim")); err != nil {
		return nil, err
	}
	attackerHost, err := c.Admit(ctx, core.KVMProcess(), spec("attacker"))
	if err != nil {
		return nil, err
	}
	ah, err := c.Host(attackerHost)
	if err != nil {
		return nil, err
	}
	attackerVM, ok := ah.Hypervisor().VM("attacker")
	if !ok {
		return nil, fmt.Errorf("attacker VM vanished")
	}
	target := &VMTarget{VM: attackerVM}
	rng := rngFrom(CampaignSeed(cfg.Seed, 1))
	infer, err := InferAdjacency(target, campaignHammerActs, campaignInferPairs, 0xAA, CampaignSeed(cfg.Seed, 2))
	if err != nil {
		return nil, err
	}
	res.AdjacencyProbed, res.AdjacencyConfirmed = infer.Probed, infer.Confirmed
	ah.Hypervisor().Memory().ResetFlips()

	burst := func() {
		rows := target.Rows()
		if len(rows) == 0 {
			return
		}
		for k := 0; k < campaignBurstRows; k++ {
			r := rows[rng.Intn(len(rows))]
			if err := target.Hammer(r, campaignHammerActs, 0); err != nil {
				res.Denied++
				continue
			}
		}
		res.HammerBursts++
		target.EndWindow()
	}
	classify := func() {
		for _, host := range c.Hosts() {
			mem := host.Hypervisor().Memory()
			for _, f := range mem.Flips() {
				pa, err := mem.FlipPhys(f)
				if err != nil {
					continue
				}
				if host.Name() == attackerHost && attackerVM.InDomain(pa) {
					res.AttackerFlips++
				} else {
					res.CrossDomainFlips++
				}
			}
			mem.ResetFlips()
		}
	}
	clusterAudit := func() {
		if err := c.AuditIsolation(); err != nil {
			res.AuditFailures++
		} else {
			res.AuditsPassed++
		}
	}

	poison := campaignStamp(CampaignSeed(cfg.Seed, 50), 2*geometry.KiB)
	const poisonGPA = 3 * geometry.PageSize2M
	for round := 0; round < cfg.Rounds; round++ {
		srcName, err := c.HostOf("victim")
		if err != nil {
			return nil, err
		}
		src, err := c.Host(srcName)
		if err != nil {
			return nil, err
		}
		dstName := "host-0"
		if srcName == "host-0" {
			dstName = "host-1"
		}
		victimVM, ok := src.Hypervisor().VM("victim")
		if !ok {
			return nil, fmt.Errorf("victim VM vanished from %s", srcName)
		}
		// Pre-move device DMA: the only record of these bytes is the
		// dirty/touched ledgers — if either misses device stores, the
		// destination loses them and the source leaks them.
		dev, err := src.Hypervisor().AttachDevice(victimVM, "vf0")
		if err != nil {
			return nil, err
		}
		if err := dev.DMAWrite(poisonGPA, poison); err != nil {
			return nil, err
		}
		srcPages := victimVM.RAMPages()

		c.SetMoveProbe(func(stage, vm string) {
			if stage != "committed" {
				return
			}
			// Double-ownership window: routing says destination, the
			// source copy still exists. Audit must hold, mutations must
			// be refused, hammering must stay contained.
			clusterAudit()
			if _, err := c.SubmitResize("victim", cfg.VMBytes/2); err != nil {
				res.Denied++
			} else {
				res.WindowViolations++
			}
			burst()
		})
		_, err = c.MoveVM(ctx, "victim", dstName, victimVM.Spec().Socket, 4, CampaignSeed(cfg.Seed, 60+round))
		c.SetMoveProbe(nil)
		if err != nil {
			return nil, err
		}
		res.Rounds++

		// The stale device belonged to the destroyed source copy: its
		// translations must be dead, or DMA would land in freed frames.
		if err := dev.DMAWrite(0, []byte{1}); err != nil {
			res.Denied++
		} else {
			res.WindowViolations++
		}
		// Source frames scrubbed before their nodes went back to the pool.
		buf := make([]byte, 4*geometry.KiB)
		for _, hpa := range srcPages {
			if err := src.Hypervisor().Memory().ReadPhys(hpa, buf); err != nil {
				continue
			}
			if !dram.AllZero(buf) {
				res.ScrubLeaks++
			}
		}
		// The destination copy carries the device's bytes.
		dst, err := c.Host(dstName)
		if err != nil {
			return nil, err
		}
		destVM, ok := dst.Hypervisor().VM("victim")
		if !ok {
			return nil, fmt.Errorf("victim VM missing on %s after move", dstName)
		}
		got := make([]byte, len(poison))
		if err := destVM.ReadGuest(poisonGPA, got); err != nil {
			return nil, err
		}
		for i := range got {
			if got[i] != poison[i] {
				res.VictimCorruptions++
			}
		}
		if err := c.Quiesce(ctx); err != nil {
			return nil, err
		}
		clusterAudit()
		classify()
	}
	return res, nil
}

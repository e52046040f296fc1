package attack

// Adversarial lifecycle campaigns: Blacksmith-style hammering driven
// concurrently with the four VM-lifecycle windows where frames change
// owners, each preceded by the attacker's own mapping inference
// (InferAdjacency). The campaigns assert Siloz's containment invariant at
// every step — no flip outside the attacker's domain, audits clean, no
// unscrubbed frame ever observable — and each gap they found became a fix
// in core/migrate/fleet with a pinning regression test:
//
//   - migration: hammer at every pre-copy round's ProbeMigrateRound event,
//     including the final one, between the last dirty drain and stop-and-
//     copy (the scrub-ledger hole; see TestMigrationScrubsDMAPoisonedFrame);
//   - balloon: hammer and probe while surrendered frames drain back to the
//     registry, between unmap and scrub-before-free;
//   - hotplug: probe adopted subarray-group nodes between the registry's
//     exclusive Expand and scrub-before-map;
//   - fleet: CATTmew-style double-ownership probes through cross-host
//     MoveVM's window where routing is committed to the destination but
//     the source copy still exists.
//
// Campaigns are deterministic: every interleaving runs through the lifecycle
// probe, synchronously with the campaign, and all randomness flows from the
// seeded RNG.

import (
	"context"
	"fmt"

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
}

const (
	// campaignVMBytes sizes the attacker and victim VMs: one
	// subarray-group node in the lab geometry.
	campaignVMBytes uint64 = 64 * geometry.MiB
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
}

// CampaignResult is one campaign's containment scorecard. A post-fix run
// must show Outside() == WindowViolations == ScrubLeaks == VictimCorruptions
// == AuditFailures == 0 while AttackerFlips and Denied stay non-zero (the
// attack ran and the isolation machinery pushed back).
type CampaignResult struct {
	Name   string
	Rounds int
	// The scorecard counts aggressor bursts landed inside lifecycle windows
	// and attributes every flip: Outside() counts the inter-VM escapes Siloz
	// exists to prevent. Denied counts probes the isolation machinery
	// refused (unmapped translations, stale DMA, operations rejected
	// mid-move); VictimCorruptions counts victim bytes that diverged across
	// a lifecycle operation.
	scorecard
	// WindowViolations counts probes that reached state they must not
	// (e.g. a translation that still resolved mid-drain).
	WindowViolations int
	// ScrubLeaks counts freed or re-admitted frames observed non-zero.
	ScrubLeaks int
	// AuditsPassed / AuditFailures tally the audits run after (and,
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
	r.scorecard.add(o.scorecard)
	r.WindowViolations += o.WindowViolations
	r.ScrubLeaks += o.ScrubLeaks
	r.AuditsPassed += o.AuditsPassed
	r.AuditFailures += o.AuditFailures
	r.AdjacencyProbed += o.AdjacencyProbed
	r.AdjacencyConfirmed += o.AdjacencyConfirmed
}

// refused scores one probe of a window that must stay shut: an error is a
// denial, a success a violation.
func (r *CampaignResult) refused(err error) {
	if err != nil {
		r.Denied++
	} else {
		r.WindowViolations++
	}
}

// audited tallies one audit's outcome.
func (r *CampaignResult) audited(err error) {
	if err != nil {
		r.AuditFailures++
	} else {
		r.AuditsPassed++
	}
}

// RunCampaign executes one named campaign and returns its scorecard.
func RunCampaign(name string, cfg CampaignConfig) (*CampaignResult, error) {
	cfg.normalize()
	res := &CampaignResult{Name: name}
	var err error
	switch name {
	case "migration":
		err = res.onHost(cfg, (*campaign).migration)
	case "balloon":
		err = res.onHost(cfg, (*campaign).balloon)
	case "hotplug":
		err = res.onHost(cfg, (*campaign).hotplug)
	case "fleet":
		err = res.fleet(cfg)
	default:
		return nil, fmt.Errorf("attack: unknown campaign %q (have %v)", name, Campaigns())
	}
	if err != nil {
		return nil, fmt.Errorf("attack: campaign %s: %w", name, err)
	}
	return res, nil
}

// campaign is one lifecycle campaign under way: the harness around the
// attacker, and the scorecard it fills.
type campaign struct {
	*machine
	cfg CampaignConfig
	res *CampaignResult
}

// start opens a campaign on m: the attacker's mapping inference first, then
// the seeded burst stream.
func (r *CampaignResult) start(m *machine, cfg CampaignConfig) (*campaign, error) {
	rep, err := m.infer(cfg.Seed)
	if err != nil {
		return nil, err
	}
	r.AdjacencyProbed, r.AdjacencyConfirmed = rep.Probed, rep.Confirmed
	m.rng = rngFrom(CampaignSeed(cfg.Seed, 1))
	return &campaign{machine: m, cfg: cfg, res: r}, nil
}

// onHost runs a single-host campaign on a freshly booted Siloz box.
func (r *CampaignResult) onHost(cfg CampaignConfig, run func(*campaign) error) error {
	h, err := core.Boot(cfg.Core, core.ModeSiloz)
	if err != nil {
		return err
	}
	defer h.Shutdown()
	m, err := newMachine(h, campaignVMBytes, &r.scorecard)
	if err != nil {
		return err
	}
	c, err := r.start(m, cfg)
	if err != nil {
		return err
	}
	return run(c)
}

// salvo is a burst that also probes one activation beyond the attacker's
// RAM: the EPT walk must refuse it in every lifecycle phase.
func (c *campaign) salvo() {
	c.res.refused(c.attacker.Hammer(campaignVMBytes+geometry.PageSize2M, 1, 0))
	c.burst()
}

// checkScrubbed reads the head of each page at addrs through read (a
// physical or a guest read) and counts the non-zero ones as scrub leaks: a
// frame freed or adopted must arrive scrubbed.
func (c *campaign) checkScrubbed(read func(addr uint64, buf []byte) error, addrs []uint64) error {
	buf := make([]byte, 4*geometry.KiB)
	for _, a := range addrs {
		if err := read(a, buf); err != nil {
			return err
		}
		if !dram.AllZero(buf) {
			c.res.ScrubLeaks++
		}
	}
	return nil
}

// endRound closes one lifecycle round on the box: the audit, then
// every flip attributed.
func (c *campaign) endRound() error {
	c.res.Rounds++
	c.res.audited(migrate.AuditIsolation(c.h))
	return c.settle()
}

// pagesIn lists the 2 MiB page addresses in [lo, hi).
func pagesIn(lo, hi uint64) []uint64 {
	var out []uint64
	for a := lo; a < hi; a += geometry.PageSize2M {
		out = append(out, a)
	}
	return out
}

// migration hammers inside every pre-copy round of a live migration — a
// round event fires after each round's dirty drain, so the final burst lands
// exactly in the window between the last TakeDirty and stop-and-copy. After
// each move: source frames must be scrubbed, victim data intact, the audit
// clean, and every flip inside the attacker domain.
func (c *campaign) migration() error {
	h, cfg := c.h, c.cfg
	var err error
	if c.victim, err = c.admit("victim"); err != nil {
		return err
	}
	// The victim's working set must survive every move byte-for-byte.
	stamps, err := c.stampVictim(cfg.Seed)
	if err != nil {
		return err
	}
	// Only the victim's migrations fire events on this host: one per round.
	h.SetLifecycleProbe(func(core.Event) { c.salvo() })
	defer h.SetLifecycleProbe(nil)
	for round := 0; round < cfg.Rounds; round++ {
		srcPages := c.victim.RAMPages()
		dests, err := h.FreeNodes(0, campaignVMBytes)
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
				return c.victim.WriteGuest(gpa, stamp)
			},
		}); err != nil {
			return err
		}
		if err := c.checkScrubbed(h.Memory().ReadPhys, srcPages); err != nil {
			return err
		}
		if err := c.res.checkStamps(c.victim, stamps); err != nil {
			return err
		}
		if err := c.endRound(); err != nil {
			return err
		}
	}
	return h.DestroyVM("victim")
}

// balloon races the drain-back window: the balloon's stop-the-world probe
// points expose (a) the instant surrendered frames are unmapped but not yet
// scrubbed and (b) the instant they re-enter the free pool. The attacker
// hammers in both; the campaign asserts the surrendered range is
// unreachable in (a) and zero in (b), and that re-admitted frames arrive
// zero after deflate.
func (c *campaign) balloon() error {
	h, cfg := c.h, c.cfg
	var err error
	if c.victim, err = c.admit("victim"); err != nil {
		return err
	}
	// The balloon takes the top half of the victim's pages,
	// [top, campaignVMBytes).
	top := campaignVMBytes - campaignVMBytes/geometry.PageSize2M/2*geometry.PageSize2M
	secret := campaignStamp(CampaignSeed(cfg.Seed, 30), 4*geometry.KiB)
	for round := 0; round < cfg.Rounds; round++ {
		// The victim's secret lives in the pages the balloon will take.
		var topHPAs []uint64
		for _, gpa := range pagesIn(top, campaignVMBytes) {
			if err := c.victim.WriteGuest(gpa, secret); err != nil {
				return err
			}
			hpa, err := c.victim.Translate(gpa)
			if err != nil {
				return err
			}
			topHPAs = append(topHPAs, hpa)
		}
		var drainErr error
		h.SetLifecycleProbe(func(e core.Event) {
			switch e.Kind {
			case core.ProbeBalloonUnmapped:
				// Frames hold the secret but every translation path must
				// already be gone (EPT and IOMMU alike).
				c.salvo()
				_, err := e.VM.TranslateUncached(campaignVMBytes - geometry.PageSize2M)
				c.res.refused(err)
			case core.ProbeBalloonDrained:
				// Frames are back in the pool: scrub-before-free means
				// they must be zero from this instant on.
				c.salvo()
				drainErr = c.checkScrubbed(h.Memory().ReadPhys, topHPAs)
			}
		})
		_, err := h.ResizeVM("victim", top)
		h.SetLifecycleProbe(nil)
		if err != nil {
			return err
		}
		if drainErr != nil {
			return drainErr
		}
		// Deflate: the re-admitted range must arrive zero, never a stale
		// frame with the old secret (or another tenant's bytes).
		if _, err := h.ResizeVM("victim", campaignVMBytes); err != nil {
			return err
		}
		if err := c.checkScrubbed(c.victim.ReadGuest, pagesIn(top, campaignVMBytes)); err != nil {
			return err
		}
		if err := c.endRound(); err != nil {
			return err
		}
	}
	return h.DestroyVM("victim")
}

// hotplug targets the adoption window: an unowned guest node is pre-loaded
// with residue (modeling a prior tenant's frames the pool has not
// recycled), then a victim hot-plugs into it. The probe fires between the
// registry's exclusive Expand and scrub-before-map: the attacker hammers,
// and the campaign asserts the adopted range is not yet reachable and
// arrives fully zeroed once mapped.
func (c *campaign) hotplug() error {
	h, cfg := c.h, c.cfg
	residue := campaignStamp(CampaignSeed(cfg.Seed, 40), 4*geometry.KiB)
	for round := 0; round < cfg.Rounds; round++ {
		name := fmt.Sprintf("victim-%d", round)
		var err error
		if c.victim, err = c.admit(name); err != nil {
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
		oldTop := c.victim.Spec().MemoryBytes
		adopted := false
		h.SetLifecycleProbe(func(e core.Event) {
			if e.Kind != core.ProbeHotplugAdopted {
				return
			}
			adopted = true
			c.salvo()
			// The adopted frames belong to the victim's control group now
			// but must not be guest-visible until scrubbed and mapped.
			_, err := e.VM.TranslateUncached(oldTop)
			c.res.refused(err)
		})
		_, err = h.ResizeVM(name, oldTop+campaignVMBytes)
		h.SetLifecycleProbe(nil)
		if err != nil {
			return err
		}
		if !adopted {
			return fmt.Errorf("round %d: hotplug adopted no node; campaign vacuous", round)
		}
		// Scrub-before-map: the hot-added range reads zero despite the
		// residue.
		if err := c.checkScrubbed(c.victim.ReadGuest, pagesIn(oldTop, oldTop+campaignVMBytes)); err != nil {
			return err
		}
		if err := c.endRound(); err != nil {
			return err
		}
		if err := h.DestroyVM(name); err != nil {
			return err
		}
	}
	return nil
}

// fleet mounts CATTmew-style double-ownership probes through cross-host
// MoveVM: inside the window where routing is committed to the destination
// but the source copy still exists, the attacker hammers, audits, and pokes
// the control plane; around it, a passthrough device's pre-move DMA must
// follow the VM (dirty-log visibility) and its stale post-move translations
// must be dead.
func (r *CampaignResult) fleet(cfg CampaignConfig) error {
	cl, err := fleet.New(fleet.Config{
		Hosts:  2,
		Core:   cfg.Core,
		Policy: fleet.FirstFit{},
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx := context.Background()
	spec := func(name string) core.VMSpec {
		return core.VMSpec{Name: name, MemoryBytes: campaignVMBytes, MinMemoryBytes: campaignVMBytes, VCPUs: 1}
	}
	if _, err := cl.Admit(ctx, core.KVMProcess(), spec("victim")); err != nil {
		return err
	}
	attackerHost, err := cl.Admit(ctx, core.KVMProcess(), spec("attacker"))
	if err != nil {
		return err
	}
	ah, err := cl.Host(attackerHost)
	if err != nil {
		return err
	}
	attacker, ok := ah.Hypervisor().VM("attacker")
	if !ok {
		return fmt.Errorf("attacker VM vanished")
	}
	c, err := r.start(&machine{h: ah.Hypervisor(), attacker: attacker, target: &VMTarget{VM: attacker}, card: &r.scorecard}, cfg)
	if err != nil {
		return err
	}

	poison := campaignStamp(CampaignSeed(cfg.Seed, 50), 2*geometry.KiB)
	const poisonGPA = 3 * geometry.PageSize2M
	hosts := cl.Hosts()
	for round := 0; round < cfg.Rounds; round++ {
		// FirstFit admitted the victim to host-0; every round moves it across.
		src, dst := hosts[round%2], hosts[1-round%2]
		victim, ok := src.Hypervisor().VM("victim")
		if !ok {
			return fmt.Errorf("victim VM not on %s", src.Name())
		}
		// Pre-move device DMA: no guest store put these bytes there, so
		// only the frames hold them — if the move or the teardown scrub
		// misses device stores, the destination loses them and the
		// source leaks them.
		dev, err := src.Hypervisor().AttachDevice(victim, "vf0")
		if err != nil {
			return err
		}
		if err := dev.DMAWrite(poisonGPA, poison); err != nil {
			return err
		}
		srcPages := victim.RAMPages()

		src.Hypervisor().SetLifecycleProbe(func(e core.Event) {
			if e.Kind != core.ProbeMoveCommitted {
				return
			}
			// Double-ownership window: routing says destination, the
			// source copy still exists. Audit must hold, mutations must
			// be refused, hammering must stay contained.
			r.audited(cl.AuditIsolation())
			_, err := cl.SubmitResize("victim", campaignVMBytes/2)
			r.refused(err)
			c.burst()
		})
		_, err = cl.MoveVM(ctx, "victim", dst.Name(), victim.Spec().Socket, 4, CampaignSeed(cfg.Seed, 60+round))
		src.Hypervisor().SetLifecycleProbe(nil)
		if err != nil {
			return err
		}
		r.Rounds++

		// The stale device belonged to the destroyed source copy: its
		// translations must be dead, or DMA would land in freed frames.
		r.refused(dev.DMAWrite(0, []byte{1}))
		// Source frames scrubbed before their nodes went back to the pool.
		if err := c.checkScrubbed(src.Hypervisor().Memory().ReadPhys, srcPages); err != nil {
			return err
		}
		// The destination copy carries the device's bytes.
		moved, ok := dst.Hypervisor().VM("victim")
		if !ok {
			return fmt.Errorf("victim VM missing on %s after move", dst.Name())
		}
		if err := r.checkStamps(moved, map[uint64][]byte{poisonGPA: poison}); err != nil {
			return err
		}
		r.audited(cl.AuditIsolation())
		// Every host's flips, against that host's tenants: on the host
		// without the attacker, every flip is outside.
		for _, host := range hosts {
			hv := host.Hypervisor()
			a, _ := hv.VM("attacker")
			v, _ := hv.VM("victim")
			if err := r.tally(hv, a, v); err != nil {
				return err
			}
		}
	}
	return nil
}

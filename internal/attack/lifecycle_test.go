package attack

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
)

// campaignLabProfile: deterministic flips, no TRR, transforms stripped —
// the same lab idiom the experiments use.
func campaignLabProfile() dram.Profile {
	p := dram.ProfileF()
	p.VulnerableRowFraction = 1
	p.WeakCellsPerRow = 600
	p.HammerThreshold = 5000
	p.Transforms = addr.TransformConfig{}
	return p
}

func campaignLabConfig() core.Config {
	return core.Config{
		Geometry:      testGeometry(),
		Profiles:      []dram.Profile{campaignLabProfile()},
		EPTProtection: ept.GuardRows,
	}
}

func quickCampaignConfig(seed int64) CampaignConfig {
	return CampaignConfig{
		Core:   campaignLabConfig(),
		Seed:   seed,
		Rounds: 1,
	}
}

func TestInferAdjacencyConfirmsMapping(t *testing.T) {
	_, target := physEnv(t, campaignLabProfile())
	rep, err := InferAdjacency(target, 20_000, 4, 0xAA, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probed == 0 {
		t.Fatal("no pairs probed; test vacuous")
	}
	if rep.Confirmed == 0 || rep.RowPitch != 1 {
		t.Errorf("adjacency not confirmed (probed %d, confirmed %d, pitch %d)",
			rep.Probed, rep.Confirmed, rep.RowPitch)
	}
}

func TestInferAdjacencyNoRun(t *testing.T) {
	mem, target := physEnv(t, campaignLabProfile())
	_ = mem
	// A target with fewer than 3 rows has no triple to probe.
	short := &PhysTarget{Mem: target.Mem, Ranges: target.Ranges[:0]}
	if _, err := InferAdjacency(short, 1000, 2, 0xAA, 1); err != ErrNoAdjacentRows {
		t.Fatalf("err = %v, want ErrNoAdjacentRows", err)
	}
}

// TestRunCampaignContainment drives every campaign once and asserts the
// post-fix scorecard: the attack is real (bursts landed, attacker-domain
// flips happened, mapping inferred) and containment held (no cross-domain
// flip, no window violation, no scrub leak, no corrupted victim data,
// every audit clean).
func TestRunCampaignContainment(t *testing.T) {
	for i, name := range Campaigns() {
		name := name
		seed := CampaignSeed(23, i)
		t.Run(name, func(t *testing.T) {
			res, err := RunCampaign(name, quickCampaignConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds == 0 || res.HammerBursts == 0 {
				t.Fatalf("campaign vacuous: %+v", res)
			}
			if res.AdjacencyProbed == 0 || res.AdjacencyConfirmed == 0 {
				t.Errorf("mapping inference vacuous: probed %d confirmed %d",
					res.AdjacencyProbed, res.AdjacencyConfirmed)
			}
			if res.AttackerFlips == 0 {
				t.Error("no attacker-domain flips: the hammering never bit")
			}
			if res.Outside() != 0 {
				t.Errorf("%d cross-domain flips escaped", res.Outside())
			}
			if res.WindowViolations != 0 {
				t.Errorf("%d window violations", res.WindowViolations)
			}
			if res.ScrubLeaks != 0 {
				t.Errorf("%d scrub leaks", res.ScrubLeaks)
			}
			if res.VictimCorruptions != 0 {
				t.Errorf("%d victim corruptions", res.VictimCorruptions)
			}
			if res.AuditFailures != 0 || res.AuditsPassed == 0 {
				t.Errorf("audits: %d passed, %d failed", res.AuditsPassed, res.AuditFailures)
			}
			if res.Denied == 0 {
				t.Error("no probe was denied: the isolation machinery never pushed back")
			}
		})
	}
}

// TestRunCampaignDeterministic: a fixed seed reproduces each campaign's whole
// scorecard — the fleet campaign's too, whose move and window probe run on
// host workers — which is what lets lifecycle-attack run its cells in
// parallel.
func TestRunCampaignDeterministic(t *testing.T) {
	for i, name := range Campaigns() {
		seed := CampaignSeed(31, i)
		t.Run(name, func(t *testing.T) {
			a, err := RunCampaign(name, quickCampaignConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunCampaign(name, quickCampaignConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			if *a != *b {
				t.Errorf("same seed, different scorecards:\n%+v\n%+v", *a, *b)
			}
		})
	}
}

func TestRunCampaignUnknown(t *testing.T) {
	if _, err := RunCampaign("nope", quickCampaignConfig(1)); err == nil {
		t.Fatal("unknown campaign accepted")
	}
}

func TestCampaignSeedSpacing(t *testing.T) {
	a, b := CampaignSeed(100, 1), CampaignSeed(100, 2)
	if a == b || b-a != campaignSeedSalt {
		t.Fatalf("seeds %d, %d not spaced by the salt", a, b)
	}
}

package experiments

import (
	"context"
	"fmt"

	"repro/internal/attack"
)

// lifecycleAttackParams parameterizes the "lifecycle-attack" experiment:
// adversarial Blacksmith-style campaigns driven concurrently with the four
// VM-lifecycle windows where frames change owners (migration pre-copy,
// balloon drain-back, hotplug adoption, cross-host double ownership), each
// preceded by the attacker's own mapping inference. The experiment asserts
// the containment invariant campaign by campaign.
type lifecycleAttackParams struct {
	// Reps repeats each campaign with salt-spaced seeds.
	Reps int
	// Rounds is the lifecycle iterations per campaign run.
	Rounds int
	// Seed drives every campaign's randomness.
	Seed int64
}

// lifecycleAttackConfig resolves the study: all four campaign classes
// (attack.Campaigns order), two reps of two rounds each — one of one under
// -quick.
func lifecycleAttackConfig(f Flags) lifecycleAttackParams {
	cfg := lifecycleAttackParams{Reps: 2, Rounds: 2, Seed: f.seed(41)}
	if f.Quick {
		cfg.Reps, cfg.Rounds = 1, 1
	}
	cfg.Reps = override(f.Reps, cfg.Reps)
	return cfg
}

func lifecycleAttackExp(ctx context.Context, pool *Pool, lc lifecycleAttackParams) (*Result, error) {
	campaigns := attack.Campaigns()
	// Cells are campaign-major, Reps per campaign.
	results, err := mapReps(ctx, pool, lc.Seed, campaigns, lc.Reps, func(campaign string, seed int64) (*attack.CampaignResult, error) {
		r, err := attack.RunCampaign(campaign, attack.CampaignConfig{
			Core:   lifecycleLabConfig(),
			Seed:   seed,
			Rounds: lc.Rounds,
		})
		if err != nil {
			return nil, fmt.Errorf("campaign %s seed %d: %w", campaign, seed, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Name: "lifecycle-attack",
		Title: "Lifecycle attack campaigns: adversarial hammering across ownership-transfer " +
			"windows stays contained",
		Columns: []string{
			"campaign", "reps", "rounds", "bursts", "attacker flips", "cross-domain flips",
			"denied", "violations", "scrub leaks", "corruptions", "audits", "adjacency",
		},
		Units: []string{
			"", "", "", "", "", "", "", "", "", "bytes", "passed", "confirmed",
		},
		Metadata: map[string]string{
			"geometry": migrationLabGeometry().String(),
			"seed":     fmt.Sprintf("%d", lc.Seed),
			"reps":     fmt.Sprintf("%d", lc.Reps),
		},
	}

	// Aggregate per campaign.
	sums := make([]attack.CampaignResult, len(campaigns))
	var total attack.CampaignResult
	for ci, name := range campaigns {
		s := &sums[ci]
		for _, r := range results[ci] {
			s.Add(r)
		}
		res.row(name, name, lc.Reps, s.Rounds, s.HammerBursts, s.AttackerFlips, s.Outside(),
			s.Denied, s.WindowViolations, s.ScrubLeaks, s.VictimCorruptions,
			s.AuditsPassed, s.AdjacencyConfirmed)
		res.scalar("lifecycle_attacker_flips_"+name, float64(s.AttackerFlips))
		res.scalar("lifecycle_cross_domain_flips_"+name, float64(s.Outside()))
		res.scalar("lifecycle_denied_"+name, float64(s.Denied))
		total.Add(s)
	}
	res.scalar("lifecycle_attacker_flips", float64(total.AttackerFlips))
	res.scalar("lifecycle_cross_domain_flips", float64(total.Outside()))
	res.scalar("lifecycle_denied_probes", float64(total.Denied))
	res.scalar("lifecycle_scrub_leaks", float64(total.ScrubLeaks))
	res.scalar("lifecycle_audits_passed", float64(total.AuditsPassed))

	res.check("cross_domain_flip_free", total.Outside() == 0,
		fmt.Sprintf("%d attacker-domain flips, 0 outside any attacker domain", total.AttackerFlips))
	res.check("windows_sealed", total.WindowViolations == 0,
		fmt.Sprintf("%d probes denied across every ownership-transfer window", total.Denied))
	res.check("scrub_clean", total.ScrubLeaks == 0 && total.VictimCorruptions == 0,
		"no freed/adopted frame observed non-zero; victim data byte-identical across every move")
	res.check("audits_clean", total.AuditFailures == 0 && total.AuditsPassed > 0,
		fmt.Sprintf("%d isolation audits passed, including inside the cross-host double-ownership window",
			total.AuditsPassed))
	res.check("attack_nonvacuous", total.Denied > 0 && allCells(sums, func(s attack.CampaignResult) bool { return s.HammerBursts > 0 && s.AttackerFlips > 0 }),
		fmt.Sprintf("every campaign landed bursts and flipped attacker-domain bits (%d bursts total)",
			total.HammerBursts))
	res.check("mapping_inferred", allCells(sums, func(s attack.CampaignResult) bool { return s.AdjacencyConfirmed > 0 }),
		"each campaign's attacker confirmed row adjacency from inside its own domain first")

	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d hammer bursts across %d campaign cells produced %d flips, all inside attacker domains; "+
			"every cross-domain probe was denied (%d) and every audit held",
		total.HammerBursts, len(campaigns)*lc.Reps, total.AttackerFlips, total.Denied))
	return res, nil
}

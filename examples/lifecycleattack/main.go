// Lifecycle attack: an adversarial tenant hammers exactly while the
// hypervisor shuffles frame ownership — the migration pre-copy window, the
// balloon drain-back, the hotplug adoption gap, and the cross-host
// double-ownership window of a fleet move. The attacker first confirms its
// row-adjacency hypothesis from inside its own domain (DRAMDig-style), then
// runs every campaign; Siloz's subarray-group isolation plus
// scrub-before-free/scrub-before-map keeps every flip inside the attacker's
// own domain and every audit clean.
package main

import (
	"fmt"
	"log"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
)

// The same two-socket lab box the migration example uses, with a
// deterministic-flip DRAM part so the hammering visibly bites.
func labConfig() core.Config {
	p := dram.ProfileF()
	p.Transforms = addr.TransformConfig{}
	p.VulnerableRowFraction = 1
	p.WeakCellsPerRow = 600
	p.HammerThreshold = 5000
	return core.Config{
		Geometry: geometry.Geometry{
			Sockets:         2,
			CoresPerSocket:  4,
			DIMMsPerSocket:  1,
			RanksPerDIMM:    2,
			BanksPerRank:    8,
			RowsPerBank:     2048,
			RowBytes:        8 * geometry.KiB,
			RowsPerSubarray: 512,
		},
		Profiles:      []dram.Profile{p},
		EPTProtection: ept.GuardRows,
	}
}

func main() {
	log.SetFlags(0)
	for i, name := range attack.Campaigns() {
		res, err := attack.RunCampaign(name, attack.CampaignConfig{
			Core:   labConfig(),
			Seed:   attack.CampaignSeed(17, i),
			Rounds: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s adjacency %d/%d confirmed; %d bursts, %d attacker flips, "+
			"%d cross-domain, %d denied, %d audits clean\n",
			name, res.AdjacencyConfirmed, res.AdjacencyProbed, res.HammerBursts,
			res.AttackerFlips, res.Outside(), res.Denied, res.AuditsPassed)
		if res.Outside() != 0 || res.WindowViolations != 0 ||
			res.ScrubLeaks != 0 || res.VictimCorruptions != 0 || res.AuditFailures != 0 {
			log.Fatalf("containment broken in campaign %s: %+v", name, res)
		}
	}
	fmt.Println("all four lifecycle windows held: every flip stayed in the attacker's domain")
}

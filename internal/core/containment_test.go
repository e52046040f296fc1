package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/geometry"
	"repro/internal/numa"
	"repro/internal/subarray"
)

// The row-space containment audit checks the isolation claim at the level
// it is stated: no activation in one domain disturbs a row of another. Node
// ownership is checked by Audit; between it and the DRAM sit the mapper,
// each DIMM's own row address transforms, its row repairs, the guard rows and
// each profile's blast radius. The audit projects every node's ranges
// through all of them into each bank's internal row order and walks every
// row's blast span there.

// Owners of a media row beside node IDs.
const (
	ownerNone     = -1 // in no node and not offlined
	ownerOfflined = -2
	ownerShared   = -3 // claimed twice, or only part of its row group claimed
)

func ownerName(o int) string {
	switch o {
	case ownerNone:
		return "nobody"
	case ownerOfflined:
		return "offlined"
	case ownerShared:
		return "shared"
	}
	return fmt.Sprintf("node %d", o)
}

// containmentFinding is one row whose blast span reaches another owner's
// row: the bank and half-row side, the aggressor's internal row (or, for a
// repaired row, its spare's anchor), and the two owners. A row no owner
// accounts for is reported with itself as victim.
type containmentFinding struct {
	bank              geometry.BankID
	side              addr.Side
	row               int
	spare             bool
	aggressor, victim int
}

func (f containmentFinding) String() string {
	at := "row"
	if f.spare {
		at = "spare at row"
	}
	return fmt.Sprintf("%v side %v %s %d: %s reaches %s", f.bank, f.side, at, f.row, ownerName(f.aggressor), ownerName(f.victim))
}

// socketRowOwners projects every node's ranges, and the offlined ranges,
// through the mapper to the media rows of each socket. The mapping stripes a
// row group over every bank of its socket, so one owner per (socket, row)
// holds for all of its banks; a stripe over fewer banks, or a range covering
// part of one, marks the row shared.
func socketRowOwners(t *testing.T, h *Hypervisor) [][]int {
	t.Helper()
	g := h.cfg.Geometry
	owners := make([][]int, g.Sockets)
	for s := range owners {
		owners[s] = make([]int, g.RowsPerBank)
		for r := range owners[s] {
			owners[s][r] = ownerNone
		}
	}
	mapper := h.Memory().Mapper()
	claim := func(ranges []subarray.Range, owner int) {
		for _, r := range ranges {
			for pa := r.Start; pa < r.End; {
				st, err := mapper.Stripe(pa)
				if err != nil {
					t.Fatal(err)
				}
				end := pa - uint64(st.Off) + uint64(st.Len)
				row := &owners[st.Socket][st.Row]
				switch {
				case st.Off != 0 || end > r.End || st.Banks != g.BanksPerSocket():
					*row = ownerShared
				case *row == ownerNone:
					*row = owner
				case *row != owner:
					*row = ownerShared
				}
				pa = end
			}
		}
	}
	for _, n := range h.Topology().Nodes() {
		claim(n.Ranges, n.ID)
	}
	claim(h.OfflinedRanges(), ownerOfflined)
	return owners
}

// auditContainment runs the audit over every socket, DIMM, rank and bank,
// each bank with its own module's internal mapper, profile blast radius and
// repairs. A row's owner is the same in every bank of its socket, so banks
// without repairs on one socket and rank whose DIMMs share transforms and
// blast radius walk the same rows: the first stands for all of them.
func auditContainment(t *testing.T, h *Hypervisor) []containmentFinding {
	t.Helper()
	g := h.cfg.Geometry
	owners := socketRowOwners(t, h)
	nodes := h.Topology().Nodes()
	host := func(o int) bool { return o >= 0 && nodes[o].Kind == numa.HostReserved }

	var out []containmentFinding
	for s, own := range owners {
		for r, o := range own {
			if o == ownerNone || o == ownerShared {
				out = append(out, containmentFinding{bank: geometry.BankID{Socket: s}, row: r, aggressor: o, victim: o})
			}
		}
	}
	spares := map[geometry.BankID]map[int]int{} // repaired internal row -> spare anchor
	if rt := h.cfg.Repairs; rt != nil {
		for _, r := range rt.Repairs() {
			if spares[r.Bank] == nil {
				spares[r.Bank] = map[int]int{}
			}
			spares[r.Bank][r.From] = r.Spare.Anchor
		}
	}
	type plainKey struct {
		socket, rank, radius int
		transforms           addr.TransformConfig
	}
	plainDone := map[plainKey]bool{}
	for s := 0; s < g.Sockets; s++ {
		for d := 0; d < g.DIMMsPerSocket; d++ {
			im := h.Memory().Module(s, d).InternalMapper()
			prof := h.cfg.Profiles[d%len(h.cfg.Profiles)]
			for rank := 0; rank < g.RanksPerDIMM; rank++ {
				for b := 0; b < g.BanksPerRank; b++ {
					bank := geometry.BankID{Socket: s, DIMM: d, Rank: rank, Bank: b}
					sp := spares[bank]
					if key := (plainKey{s, rank, prof.BlastRadius, prof.Transforms}); len(sp) == 0 {
						if plainDone[key] {
							continue
						}
						plainDone[key] = true
					}
					out = auditBank(out, g, owners[s], im, bank, prof.BlastRadius, sp, host)
				}
			}
		}
	}
	return out
}

// auditBank walks one bank's internal rows on both half-row sides. An
// internal row's aggressor is the media row the module maps there, unless the
// row is repaired: then that media row drives its spare at the spare's
// anchor, and the dead row stays a victim of its media row. Each aggressor's
// blast span is clamped to its subarray as dram.Module.blastSpan clamps it;
// a normal aggressor skips itself, a spare disturbs its anchor's row too, and
// spares anchored in the span are victims as well. A victim must belong to
// the aggressor's owner, be offlined, or be host memory.
func auditBank(out []containmentFinding, g geometry.Geometry, owners []int, im *addr.InternalMapper,
	bank geometry.BankID, radius int, spares map[int]int, host func(int) bool) []containmentFinding {
	sub := g.RowsPerSubarray
	sparesAt := map[int][]int{} // anchor -> repaired rows
	for from, anchor := range spares {
		sparesAt[anchor] = append(sparesAt[anchor], from)
	}
	own := make([]int, g.RowsPerBank)
	for _, side := range []addr.Side{addr.SideA, addr.SideB} {
		for i := range own {
			own[i] = owners[im.MediaRow(bank, i, side)]
		}
		hit := func(aggressor, victim, row int, spare bool) {
			if victim != aggressor && victim != ownerOfflined && !host(victim) {
				out = append(out, containmentFinding{bank: bank, side: side, row: row, spare: spare, aggressor: aggressor, victim: victim})
			}
		}
		// walk checks the span of an aggressor owned by a at anchor; self is
		// the repaired row whose spare it is, or -1 for a normal row.
		walk := func(a, anchor, self int) {
			if a == ownerOfflined {
				return
			}
			first := anchor - anchor%sub
			for pos := max(anchor-radius, first); pos <= min(anchor+radius, first+sub-1); pos++ {
				if pos != anchor || self >= 0 {
					hit(a, own[pos], anchor, self >= 0)
				}
				for _, from := range sparesAt[pos] {
					if from != self {
						hit(a, own[from], anchor, self >= 0)
					}
				}
			}
		}
		for i := range own {
			if anchor, repaired := spares[i]; repaired {
				walk(own[i], anchor, i)
			} else {
				walk(own[i], i, -1)
			}
		}
	}
	return out
}

// auditBox is one configuration the audit boots.
type auditBox struct {
	name string
	cfg  Config
}

// hazardProfile is a TRR-less DIMM with the given transforms whose every row
// is vulnerable, so a single 20 000-activation burst flips its neighbours.
func hazardProfile(tr addr.TransformConfig) dram.Profile {
	p := dram.ProfileF()
	p.Transforms = tr
	p.HammerThreshold = 10_000
	p.VulnerableRowFraction = 1
	return p
}

// hazardBoxes are the three boxes whose layout once missed a transform (two
// DIMMs that differ, subarrays smaller than the transforms' 512-row block)
// and leaked flips across nodes, then the two controls that never did.
func hazardBoxes() []auditBox {
	mi := addr.TransformConfig{Mirroring: true, Inversion: true}
	all := addr.AllTransforms()
	g640 := testGeometry()
	g640.DIMMsPerSocket = 2
	g640.RowsPerBank = 5120
	g640.RowsPerSubarray = 640
	g256 := testGeometry()
	g256.RowsPerSubarray = 256
	box := func(name string, g geometry.Geometry, trs ...addr.TransformConfig) auditBox {
		cfg := Config{Geometry: g}
		for _, tr := range trs {
			cfg.Profiles = append(cfg.Profiles, hazardProfile(tr))
		}
		return auditBox{name, cfg}
	}
	g512 := g256
	g512.RowsPerSubarray = 512
	return []auditBox{
		box("640/mirror-invert+all", g640, mi, all),
		box("640/none+all", g640, addr.TransformConfig{}, all),
		box("256/all", g256, all),
		box("640/all+all", g640, all, all),
		box("512/all", g512, all),
	}
}

// hazardBox returns the hazard box of that name.
func hazardBox(name string) auditBox {
	for _, b := range hazardBoxes() {
		if b.name == name {
			return b
		}
	}
	panic("no hazard box " + name)
}

// mixedRepairBox is a power-of-two box whose two DIMMs differ, with
// inter-subarray repairs on both: each repair's media rows must be resolved
// through the transforms of the DIMM it is on.
func mixedRepairBox(t *testing.T) auditBox {
	t.Helper()
	g := testGeometry()
	g.DIMMsPerSocket = 2
	rt, err := addr.GenerateRepairs(g, addr.RepairInterSubarray, 0.0015, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return auditBox{"repairs/mixed-dimms", Config{Geometry: g, Repairs: rt, Profiles: []dram.Profile{
		hazardProfile(addr.TransformConfig{}), hazardProfile(addr.AllTransforms())}}}
}

// radiusProfile is profile F with the given blast radius, every further row
// weighted a quarter.
func radiusProfile(radius int) dram.Profile {
	p := dram.ProfileF()
	p.BlastRadius = radius
	p.DistanceWeights = []float64{1}
	for len(p.DistanceWeights) < radius {
		p.DistanceWeights = append(p.DistanceWeights, 0.25)
	}
	return p
}

// shippedGeometries are the servers the programs boot: the evaluation server
// at each subarray size the sensitivity variants use, the migration lab box,
// the fleet's host and the two-DIMM box of the hammer benchmark.
func shippedGeometries() map[string]geometry.Geometry {
	fleet := testGeometry()
	fleet.RowsPerBank = 4096
	hammer := fleet
	hammer.CoresPerSocket, hammer.DIMMsPerSocket, hammer.BanksPerRank = 8, 2, 4
	return map[string]geometry.Geometry{
		"default-1024": geometry.Default(), "default-512": geometry.Default().WithSubarraySize(512),
		"default-2048": geometry.Default().WithSubarraySize(2048), "lab-512": testGeometry(),
		"fleet-512": fleet, "hammer-512": hammer,
	}
}

// cleanAuditBoxes lists every box the audit must find contained.
func cleanAuditBoxes(t *testing.T) []auditBox {
	var boxes []auditBox
	for name, g := range shippedGeometries() {
		boxes = append(boxes, auditBox{name + "/A-F", Config{Geometry: g}})
		for _, p := range dram.EvaluationProfiles() {
			boxes = append(boxes, auditBox{name + "/" + p.Name, Config{Geometry: g, Profiles: []dram.Profile{p}}})
		}
	}
	repaired := testConfig()
	repaired.Profiles = []dram.Profile{dram.ProfileF()}
	rt, err := addr.GenerateRepairs(repaired.Geometry, addr.RepairInterSubarray, 0.0015, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	repaired.Repairs = rt
	boxes = append(boxes, auditBox{"repairs/generated", repaired}, mixedRepairBox(t))
	boxes = append(boxes, hazardBoxes()...)
	// Four guard rows at a boundary hold a blast radius of up to four.
	limit := hazardBox("640/all+all")
	limit.name = "640/radius-4"
	limit.cfg.Profiles = []dram.Profile{radiusProfile(subarray.GuardRowsPerBoundary)}
	return append(boxes, limit)
}

// TestContainmentAudit runs the row-space audit over every shipped geometry
// under each evaluation DIMM alone and under the A-F population, a generated
// repair table, a repaired box whose DIMMs differ, the hazard boxes and a
// DIMM whose blast radius is as wide as the guard rows hold. Every one must
// be contained.
func TestContainmentAudit(t *testing.T) {
	for _, c := range cleanAuditBoxes(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			h, err := Boot(c.cfg, ModeSiloz)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Shutdown()
			if bad := auditContainment(t, h); len(bad) != 0 {
				t.Fatalf("%d findings, first %v", len(bad), bad[0])
			}
		})
	}
}

// TestContainmentAuditFlagsWideBlast: a DIMM whose blast radius is one row
// beyond what the boundary guards hold reaches the next node at every
// artificial boundary, and the audit reports it.
func TestContainmentAuditFlagsWideBlast(t *testing.T) {
	box := hazardBox("640/all+all")
	box.cfg.Profiles = []dram.Profile{radiusProfile(subarray.GuardRowsPerBoundary + 1)}
	h, err := Boot(box.cfg, ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	bad := auditContainment(t, h)
	if len(bad) == 0 {
		t.Fatal("a blast radius past the guard rows went unreported")
	}
	f := bad[0]
	if f.aggressor < 0 || f.victim < 0 || f.aggressor == f.victim {
		t.Fatalf("finding %v does not name two nodes", f)
	}
}

// TestBoundaryHammeringStaysInItsNode is the physical counterpart of the
// audit on the hazard boxes: on socket 0 it hammers, 20 000 times each, the
// guest-node rows that some DIMM's internal order places within the blast
// radius of an ownership change, in a bank of that DIMM and rank, and
// requires that no flip lands in another node (offlined rows do not count).
func TestBoundaryHammeringStaysInItsNode(t *testing.T) {
	for _, c := range hazardBoxes() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			h, err := Boot(c.cfg, ModeSiloz)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Shutdown()
			g, mem := h.cfg.Geometry, h.Memory()
			node := func(bank geometry.BankID, row int) (*numa.Node, uint64) {
				pa, err := mem.Mapper().Encode(geometry.MediaAddr{Bank: bank, Row: row})
				if err != nil {
					t.Fatal(err)
				}
				n, _ := h.Topology().NodeOf(pa)
				return n, pa
			}
			id := func(n *numa.Node) int {
				if n == nil {
					return ownerOfflined
				}
				return n.ID
			}
			hammered := 0
			for d := 0; d < g.DIMMsPerSocket; d++ {
				im := mem.Module(0, d).InternalMapper()
				radius := h.cfg.Profiles[d%len(h.cfg.Profiles)].BlastRadius
				for rank := 0; rank < g.RanksPerDIMM; rank++ {
					bank := geometry.BankID{DIMM: d, Rank: rank}
					sample := map[int]bool{}
					for _, side := range []addr.Side{addr.SideA, addr.SideB} {
						prev := -1
						for i := 0; i < g.RowsPerBank; i++ {
							n, _ := node(bank, im.MediaRow(bank, i, side))
							if cur := id(n); i > 0 && cur != prev {
								for j := max(i-radius-1, 0); j <= min(i+radius, g.RowsPerBank-1); j++ {
									sample[im.MediaRow(bank, j, side)] = true
								}
							}
							prev = id(n)
						}
					}
					rows := make([]int, 0, len(sample))
					for row := range sample {
						rows = append(rows, row)
					}
					slices.Sort(rows) // one activation order, so one flip count
					for _, row := range rows {
						n, pa := node(bank, row)
						if n == nil || n.Kind != numa.GuestReserved {
							continue
						}
						if err := mem.ActivatePhys(pa, 20_000, 0); err != nil {
							mem.Refresh() // a new window for the bank's activation budget
							if err := mem.ActivatePhys(pa, 20_000, 0); err != nil {
								t.Fatal(err)
							}
						}
						hammered++
					}
				}
			}
			flips := mem.Flips()
			if hammered == 0 || len(flips) == 0 {
				t.Fatalf("%d rows hammered, %d flips: the test is vacuous", hammered, len(flips))
			}
			escaped := 0
			for _, f := range flips {
				pa, err := mem.FlipPhys(f)
				if err != nil {
					t.Fatal(err)
				}
				victim, _ := h.Topology().NodeOf(pa)
				aggressor, _ := node(f.Bank, f.AggressorMediaRow)
				if victim != nil && victim != aggressor {
					if escaped == 0 {
						t.Errorf("flip %v lands in node %d, hammered from node %d", f, victim.ID, id(aggressor))
					}
					escaped++
				}
			}
			if escaped != 0 {
				t.Errorf("%d of %d flips from %d hammered rows landed in another node", escaped, len(flips), hammered)
			}
		})
	}
}

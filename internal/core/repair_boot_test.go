package core

import (
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/geometry"
)

// TestInterSubarrayRepairsOfflinedAtBoot verifies the §6 mitigation end to
// end: when a DIMM uses inter-subarray row repairs, Siloz identifies the
// affected media rows via the translation drivers and removes their pages
// from allocatable memory at boot, so no tenant's data can land on (or be
// reached through) a spare in a foreign subarray.
func TestInterSubarrayRepairsOfflinedAtBoot(t *testing.T) {
	g := testGeometry()
	rt := addr.NewRepairTable(g)
	// A handful of inter-subarray repairs on different banks/sockets,
	// the ~0.15%-scale population §6 cites.
	for i, spec := range []struct {
		bank geometry.BankID
		from int
		to   int
	}{
		{geometry.BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 0}, 100, 700},
		{geometry.BankID{Socket: 0, DIMM: 0, Rank: 1, Bank: 3}, 600, 1500},
		{geometry.BankID{Socket: 1, DIMM: 0, Rank: 0, Bank: 5}, 214, 900},
		{geometry.BankID{Socket: 1, DIMM: 0, Rank: 1, Bank: 7}, 1800, 300},
	} {
		if err := rt.Add(addr.Repair{Bank: spec.bank, From: spec.from, Spare: addr.SpareRow{Anchor: spec.to}}); err != nil {
			t.Fatalf("repair %d: %v", i, err)
		}
	}
	if len(rt.InterSubarrayRepairs()) != 4 {
		t.Fatal("repairs not inter-subarray")
	}
	cfg := testConfig()
	cfg.Repairs = rt
	h, err := Boot(cfg, ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}

	// Every repaired media row's row group is excluded from all logical
	// nodes: no node owns it, so no software can ever be placed there.
	mapper := h.Memory().Mapper()
	checked := 0
	for s, rows := range offlineRowsFor(t, h, rt) {
		for _, row := range rows {
			pa, err := mapper.Encode(geometry.MediaAddr{
				Bank: geometry.BankID{Socket: s}, Row: row, Col: 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			if n, owned := h.Topology().NodeOf(pa); owned {
				t.Fatalf("repaired row %d (socket %d) still owned by node %d", row, s, n.ID)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no repaired rows checked")
	}
	_ = g

	// Tenants fill the machine's guest nodes; hammering near spares can
	// only corrupt offlined rows, never another tenant's data.
	proc := kvmProc()
	a, err := h.CreateVM(proc, VMSpec{Name: "a", Socket: 0, MemoryBytes: 32 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.CreateVM(proc, VMSpec{Name: "b", Socket: 0, MemoryBytes: 32 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	attackEdges(t, h, a, 20000)
	for _, f := range h.Memory().Flips() {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if b.OwnsHPA(pa) {
			t.Errorf("flip reached tenant b despite repair offlining: %v", f)
		}
		// Flips must be in a's domain or in offlined (unowned) pages.
		if !a.InDomain(pa) {
			if _, owned := h.Topology().NodeOf(pa); owned {
				t.Errorf("flip escaped to owned memory: %v", f)
			}
		}
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("audit failed: %v", bad)
	}
}

// offlineRowsFor recomputes the §6 offline rows the boot should have used.
func offlineRowsFor(t *testing.T, h *Hypervisor, rt *addr.RepairTable) map[int][]int {
	t.Helper()
	im := h.InternalMapperFor(0, 0)
	_ = im
	out := map[int][]int{}
	for _, r := range rt.InterSubarrayRepairs() {
		mapper := h.InternalMapperFor(r.Bank.Socket, r.Bank.DIMM)
		for _, side := range []addr.Side{addr.SideA, addr.SideB} {
			out[r.Bank.Socket] = append(out[r.Bank.Socket], mapper.MediaRow(r.Bank, r.From, side))
		}
	}
	return out
}

// TestRepairOfflineRows checks what the boot offlines for repairs: for every
// inter-subarray repair, the media rows that resolve to the repaired
// internal row on either half-row side through the internal mapper of the
// DIMM the repair is on, on every socket, and nothing for an intra-subarray
// repair or a box without repairs. The mixed box's two DIMMs repair the same
// internal row under different transforms, so each must be resolved through
// its own.
func TestRepairOfflineRows(t *testing.T) {
	mixed := testGeometry()
	mixed.DIMMsPerSocket = 2
	all, none := testProfile(), testProfile()
	all.Transforms = addr.AllTransforms()
	for _, c := range []struct {
		name     string
		g        geometry.Geometry
		profiles []dram.Profile
	}{
		{"all-transforms", testGeometry(), []dram.Profile{all}},
		{"mixed-dimms", mixed, []dram.Profile{none, all}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := addr.NewRepairTable(c.g)
			want := map[int]bool{}
			for d := 0; d < c.g.DIMMsPerSocket; d++ {
				bank := geometry.BankID{Socket: 0, DIMM: d, Rank: 1, Bank: 0}
				// Inter-subarray: internal row 100 (subarray 0) -> anchor 600
				// (subarray 1). Intra-subarray: 200 -> 300, never offlined.
				for _, r := range []addr.Repair{
					{Bank: bank, From: 100, Spare: addr.SpareRow{Anchor: 600}},
					{Bank: bank, From: 200, Spare: addr.SpareRow{Anchor: 300}},
				} {
					if err := rt.Add(r); err != nil {
						t.Fatal(err)
					}
				}
				im := addr.NewInternalMapper(c.g, c.profiles[d].Transforms)
				want[im.MediaRow(bank, 100, addr.SideA)] = true
				want[im.MediaRow(bank, 100, addr.SideB)] = true
			}
			offlinedRows := func(rt *addr.RepairTable) map[int]bool {
				t.Helper()
				h, err := Boot(Config{Geometry: c.g, Profiles: c.profiles, Repairs: rt}, ModeSiloz)
				if err != nil {
					t.Fatal(err)
				}
				defer h.Shutdown()
				rows := map[int]bool{}
				for s, own := range socketRowOwners(t, h) {
					for r, o := range own {
						if o == ownerOfflined && r >= EPTBlockRowGroups {
							rows[r] = true
						} else if rows[r] {
							t.Fatalf("row %d offlined on one socket but not on socket %d", r, s)
						}
					}
				}
				return rows
			}
			if got := offlinedRows(nil); len(got) != 0 {
				t.Fatalf("a box without repairs offlined rows %v beside the EPT block", got)
			}
			if got := offlinedRows(rt); !reflect.DeepEqual(got, want) {
				t.Fatalf("offlined rows %v, want %v", got, want)
			}
		})
	}
}

package attack

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

// landFlips hammers the row group one above lo hard enough to flip both its
// neighbours — the row groups at lo and two above it — and not the rows
// beyond, closes the window, and returns how many flips the machine has
// recorded. Every flip must lie in [lo, hi): the case's memory class.
func landFlips(t *testing.T, h *core.Hypervisor, lo, hi uint64) int {
	t.Helper()
	mem := h.Memory()
	rowGroup := uint64(mem.Geometry().RowGroupBytes())
	if hi-lo < 3*rowGroup {
		t.Fatalf("[%#x, %#x) holds fewer than three row groups", lo, hi)
	}
	if err := mem.ActivatePhys(lo+rowGroup, int(2*campaignLabProfile().HammerThreshold), 0); err != nil {
		t.Fatal(err)
	}
	mem.Refresh()
	flips := mem.Flips()
	if len(flips) == 0 {
		t.Fatalf("no flip landed in [%#x, %#x)", lo, hi)
	}
	for _, f := range flips {
		pa, err := mem.FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if pa < lo || pa >= hi {
			t.Fatalf("flip at %#x landed outside [%#x, %#x)", pa, lo, hi)
		}
	}
	return len(flips)
}

// TestAttributeFlipsClassifiesEveryFlip lands flips in one class of memory
// per case and checks the ledger's verdict, Escapes() and Outside(). The
// machines are a CATT baseline (guard bands), a Siloz box (offlined EPT
// guard rows), and a Siloz box with CATT bands, where a tenant's guard page
// can sit inside its own isolation domain: memory of a tenant's domain is
// that tenant's before it is a guard. Mutants this catches, each checked by
// hand: the guard check moved before the victim check, the offlined check
// dropped, and Outside() without guard flips.
func TestAttributeFlipsClassifiesEveryFlip(t *testing.T) {
	page := func(pa uint64) (uint64, uint64) { return pa, pa + geometry.PageSize2M }
	for _, tc := range []struct {
		name string
		mode core.Mode
		kind mitigation.Kind
		// where picks the memory the flips land in.
		where func(t *testing.T, h *core.Hypervisor, attacker, victim *core.VM) (lo, hi uint64)
		want  func(n int) FlipLedger
		// escapes and outside say whether the case's flips count there.
		escapes, outside bool
		// absent attributes with no attacker on the machine, as on the
		// fleet campaign's other host.
		absent bool
	}{
		{
			name: "attacker RAM", mode: core.ModeBaseline, kind: mitigation.KindCATT,
			where: func(_ *testing.T, _ *core.Hypervisor, a, _ *core.VM) (uint64, uint64) { return page(a.RAMPages()[1]) },
			want:  func(n int) FlipLedger { return FlipLedger{AttackerFlips: n} },
		},
		{
			name: "attacker absent", mode: core.ModeBaseline, kind: mitigation.KindCATT, absent: true,
			where:   func(_ *testing.T, _ *core.Hypervisor, a, _ *core.VM) (uint64, uint64) { return page(a.RAMPages()[1]) },
			want:    func(n int) FlipLedger { return FlipLedger{StrayFlips: n} },
			escapes: true, outside: true,
		},
		{
			name: "victim RAM", mode: core.ModeBaseline, kind: mitigation.KindCATT,
			where:   func(_ *testing.T, _ *core.Hypervisor, _, v *core.VM) (uint64, uint64) { return page(v.RAMPages()[1]) },
			want:    func(n int) FlipLedger { return FlipLedger{VictimFlips: n} },
			escapes: true, outside: true,
		},
		{
			name: "CATT guard page", mode: core.ModeBaseline, kind: mitigation.KindCATT,
			where: func(t *testing.T, _ *core.Hypervisor, a, _ *core.VM) (uint64, uint64) {
				if len(a.GuardPages()) == 0 {
					t.Fatal("the attacker has no guard band")
				}
				return page(a.GuardPages()[0])
			},
			want:    func(n int) FlipLedger { return FlipLedger{GuardFlips: n} },
			outside: true,
		},
		{
			name: "offlined range", mode: core.ModeSiloz, kind: mitigation.KindNone,
			where: func(t *testing.T, h *core.Hypervisor, _, _ *core.VM) (uint64, uint64) {
				rowGroup := uint64(h.Memory().Geometry().RowGroupBytes())
				for _, r := range h.OfflinedRanges() {
					if r.Bytes() >= 3*rowGroup {
						return r.Start, r.End
					}
				}
				t.Fatal("no offlined range spans three row groups")
				return 0, 0
			},
			want:    func(n int) FlipLedger { return FlipLedger{GuardFlips: n} },
			outside: true,
		},
		{
			name: "free frame", mode: core.ModeBaseline, kind: mitigation.KindCATT,
			where: func(_ *testing.T, h *core.Hypervisor, _, _ *core.VM) (uint64, uint64) {
				return page(uint64(h.Memory().Geometry().SocketBytes()) - geometry.PageSize2M)
			},
			want:    func(n int) FlipLedger { return FlipLedger{StrayFlips: n} },
			escapes: true, outside: true,
		},
		{
			name: "guard page in the victim's domain", mode: core.ModeSiloz, kind: mitigation.KindCATT,
			where: func(t *testing.T, _ *core.Hypervisor, _, v *core.VM) (uint64, uint64) {
				for _, pa := range v.GuardPages() {
					if v.InDomain(pa) {
						return page(pa)
					}
				}
				t.Fatal("no victim guard page inside its own domain")
				return 0, 0
			},
			want:    func(n int) FlipLedger { return FlipLedger{VictimFlips: n} },
			escapes: true, outside: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := campaignLabConfig()
			if tc.kind != mitigation.KindNone {
				cfg.Mitigation = mitigation.Spec{Kind: tc.kind, Seed: 1}
			}
			h, err := core.Boot(cfg, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Shutdown()
			m, err := newMachine(h, 32*geometry.MiB, &scorecard{})
			if err != nil {
				t.Fatal(err)
			}
			if m.victim, err = m.admit("victim"); err != nil {
				t.Fatal(err)
			}
			lo, hi := tc.where(t, h, m.attacker, m.victim)
			n := landFlips(t, h, lo, hi)
			attacker := m.attacker
			if tc.absent {
				attacker = nil
			}
			l, err := AttributeFlips(h, attacker, m.victim)
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.want(n); l != want {
				t.Errorf("ledger %+v, want %+v", l, want)
			}
			count := func(in bool) int {
				if in {
					return n
				}
				return 0
			}
			if l.Escapes() != count(tc.escapes) || l.Outside() != count(tc.outside) {
				t.Errorf("Escapes() = %d, Outside() = %d; want %d, %d", l.Escapes(), l.Outside(), count(tc.escapes), count(tc.outside))
			}
		})
	}
}

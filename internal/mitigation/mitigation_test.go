package mitigation

import (
	"slices"
	"testing"
)

// record captures refresh directives.
type record struct {
	banks, rows []int
}

func (r *record) fn() RefreshFn {
	return func(bank, row int) {
		r.banks = append(r.banks, bank)
		r.rows = append(r.rows, row)
	}
}

func TestPARARefreshRateTracksProbability(t *testing.T) {
	p := NewPARA(0.01, 7)
	var rec record
	const acts = 200_000
	p.OnActivate(Activation{Bank: 0, Row: 5, Count: acts}, rec.fn())
	got := p.Overhead().NeighborRefreshes
	want := int(0.01 * acts)
	if got < want/2 || got > want*2 {
		t.Fatalf("PARA refreshes = %d, want ~%d", got, want)
	}
	if len(rec.rows) == 0 || rec.rows[0] != 5 || rec.banks[0] != 0 {
		t.Fatalf("refresh directives = %v/%v, want row 5 bank 0", rec.banks, rec.rows)
	}
	if err := p.Health(); err != nil {
		t.Fatalf("PARA health = %v, want nil", err)
	}
}

func TestPARADeterministicPerSeed(t *testing.T) {
	run := func(seed int64) int {
		p := NewPARA(0.005, seed)
		for i := 0; i < 50; i++ {
			p.OnActivate(Activation{Bank: i % 4, Row: i, Count: 1000}, nil)
		}
		return p.Overhead().NeighborRefreshes
	}
	if a, b := run(3), run(3); a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
	if a, b := run(3), run(4); a == b {
		t.Logf("different seeds coincided at %d (possible but unlikely)", a)
	}
}

func TestSilverBulletFiresAtThreshold(t *testing.T) {
	sb := NewSilverBullet(2, 8, 1000, 0)
	var rec record
	sb.OnActivate(Activation{Bank: 1, Row: 40, Count: 999}, rec.fn())
	if n := sb.Overhead().NeighborRefreshes; n != 0 {
		t.Fatalf("refresh fired below threshold: %d", n)
	}
	sb.OnActivate(Activation{Bank: 1, Row: 40, Count: 1}, rec.fn())
	if n := sb.Overhead().NeighborRefreshes; n != 1 {
		t.Fatalf("refreshes = %d, want 1 at threshold", n)
	}
	if len(rec.rows) != 1 || rec.rows[0] != 40 || rec.banks[0] != 1 {
		t.Fatalf("directive = %v/%v, want bank 1 row 40", rec.banks, rec.rows)
	}
	// Counter reset after firing: another sub-threshold burst stays quiet.
	sb.OnActivate(Activation{Bank: 1, Row: 40, Count: 999}, rec.fn())
	if n := sb.Overhead().NeighborRefreshes; n != 1 {
		t.Fatalf("counter not reset after fire: refreshes = %d", n)
	}
}

func TestSilverBulletSafeEviction(t *testing.T) {
	sb := NewSilverBullet(1, 2, 10_000, 0)
	var rec record
	sb.OnActivate(Activation{Bank: 0, Row: 10, Count: 5}, rec.fn())
	sb.OnActivate(Activation{Bank: 0, Row: 20, Count: 9}, rec.fn())
	// Table full; a third aggressor must evict the lowest counter (row
	// 10) and refresh its neighbourhood first — the safe-eviction rule.
	sb.OnActivate(Activation{Bank: 0, Row: 30, Count: 1}, rec.fn())
	if n := sb.Overhead().NeighborRefreshes; n != 1 {
		t.Fatalf("refreshes = %d, want 1 safe-eviction refresh", n)
	}
	if len(rec.rows) != 1 || rec.rows[0] != 10 {
		t.Fatalf("evicted row = %v, want 10 (lowest counter)", rec.rows)
	}
}

func TestSilverBulletBudgetExhaustionGoesBlind(t *testing.T) {
	sb := NewSilverBullet(1, 8, 100, 1)
	var rec record
	sb.OnActivate(Activation{Bank: 0, Row: 1, Count: 100}, rec.fn())
	sb.OnActivate(Activation{Bank: 0, Row: 2, Count: 100}, rec.fn())
	sb.OnActivate(Activation{Bank: 0, Row: 3, Count: 100}, rec.fn())
	ov := sb.Overhead()
	if ov.NeighborRefreshes != 1 {
		t.Fatalf("refreshes = %d, want 1 (budget capped)", ov.NeighborRefreshes)
	}
	if ov.Exhaustions != 1 {
		t.Fatalf("exhaustions = %d, want 1 (single event per bank-window)", ov.Exhaustions)
	}
	if len(rec.rows) != 1 {
		t.Fatalf("directives = %v, want only the budgeted one", rec.rows)
	}
	// A new window restores the budget but the health record persists.
	sb.OnWindowEnd()
	sb.OnActivate(Activation{Bank: 0, Row: 4, Count: 100}, rec.fn())
	if n := sb.Overhead().NeighborRefreshes; n != 2 {
		t.Fatalf("refreshes after window reset = %d, want 2", n)
	}
	if err := sb.Health(); err == nil {
		t.Fatal("Health = nil after exhaustion, want wrapped ErrBudgetExhausted")
	}
}

func TestTRRFiresAtInterval(t *testing.T) {
	trr := NewTRR(2, 4, 1000)
	var rec record
	trr.OnActivate(Activation{Bank: 1, Row: 7, Count: 999}, rec.fn())
	if n := trr.Overhead().NeighborRefreshes; n != 0 {
		t.Fatalf("TRR fired below interval: %d", n)
	}
	trr.OnActivate(Activation{Bank: 1, Row: 9, Count: 1}, rec.fn())
	// Interval reached: both sampled rows refresh.
	if n := trr.Overhead().NeighborRefreshes; n != 2 {
		t.Fatalf("refreshes = %d, want 2 (both sampled rows)", n)
	}
	for _, b := range rec.banks {
		if b != 1 {
			t.Fatalf("directive banks = %v, want all bank 1", rec.banks)
		}
	}
}

func TestTRRDecoyPinning(t *testing.T) {
	// Heavy decoys fill the table; a later true aggressor with smaller
	// bursts cannot displace them — the Blacksmith weakness.
	trr := NewTRR(1, 2, 1_000_000)
	tracked := func(row int) bool { return trr.table.find(0, row) >= 0 }
	trr.OnActivate(Activation{Bank: 0, Row: 1, Count: 500}, nil)
	trr.OnActivate(Activation{Bank: 0, Row: 2, Count: 500}, nil)
	trr.OnActivate(Activation{Bank: 0, Row: 3, Count: 100}, nil)
	if tracked(3) {
		t.Fatal("small aggressor displaced a heavier decoy")
	}
	trr.OnActivate(Activation{Bank: 0, Row: 4, Count: 900}, nil)
	if !tracked(4) {
		t.Fatal("larger burst failed to displace the table minimum")
	}
	if tracked(1) {
		t.Fatal("displacement evicted the wrong entry")
	}
}

func TestChainAggregates(t *testing.T) {
	ch := Chain{NewPARA(1, 1), NewTRR(1, 2, 10)}
	var rec record
	ch.OnActivate(Activation{Bank: 0, Row: 3, Count: 10}, rec.fn())
	ov := ch.Overhead()
	// PARA at p=1 wins all 10 flips; TRR fires at interval 10 with one
	// sampled row.
	if ov.NeighborRefreshes != 11 {
		t.Fatalf("chain refreshes = %d, want 11", ov.NeighborRefreshes)
	}
	if err := ch.Health(); err != nil {
		t.Fatalf("chain health = %v, want nil", err)
	}
	ch.OnWindowEnd()
	if got := ch.Name(); got != "chain+para+trr" {
		t.Fatalf("chain name = %q", got)
	}
}

func TestSpecDefaultsAndValidation(t *testing.T) {
	for _, k := range Kinds() {
		if err := (Spec{Kind: k}).Validate(); err != nil {
			t.Fatalf("spec %v invalid: %v", k, err)
		}
		parsed, err := ParseKind(k.String())
		if err != nil || parsed != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), parsed, err)
		}
	}
	if err := (Spec{Kind: Kind(99)}).Validate(); err == nil {
		t.Fatal("unknown kind validated")
	}
}

func TestSpecRowDefensePlanes(t *testing.T) {
	if d, err := (Spec{Kind: KindNone}).RowDefense(4, 1); d != nil || err != nil {
		t.Fatalf("none row defense = %v, %v; want nil, nil", d, err)
	}
	// A spec's row defense is the mechanism at its Default* tuning with an
	// unlimited refresh budget: on one activation stream it issues the same
	// refresh directives as the directly built instance.
	for _, tc := range []struct {
		kind Kind
		want Mitigation
	}{
		{KindPARA, NewPARA(DefaultPARAProbability, 1)},
		{KindSilverBullet, NewSilverBullet(4, DefaultSBTableSize, DefaultSBThreshold, 0)},
	} {
		d, err := Spec{Kind: tc.kind}.RowDefense(4, 1)
		if err != nil || d == nil || d.Name() != tc.kind.String() {
			t.Fatalf("%v row defense = %v, %v", tc.kind, d, err)
		}
		var got, want record
		for i := 0; i < 20_000; i++ {
			ev := Activation{Bank: i % 4, Row: (i * 7) % 40, Count: 1 + i%300}
			d.OnActivate(ev, got.fn())
			tc.want.OnActivate(ev, want.fn())
			if i%5_000 == 4_999 {
				d.OnWindowEnd()
				tc.want.OnWindowEnd()
			}
		}
		if len(got.rows) == 0 {
			t.Fatalf("%v: the stream fired no refresh", tc.kind)
		}
		if !slices.Equal(got.banks, want.banks) || !slices.Equal(got.rows, want.rows) {
			t.Fatalf("%v: spec-built defense issued %d refreshes, the default-tuned one %d, or in another order",
				tc.kind, len(got.rows), len(want.rows))
		}
	}
}

func TestScopeSeedSpacing(t *testing.T) {
	if ScopeSeed(10, 0) != 10 || ScopeSeed(10, 2) != 10+2*7919 {
		t.Fatalf("scope seeds = %d, %d", ScopeSeed(10, 0), ScopeSeed(10, 2))
	}
}

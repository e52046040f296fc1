package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dram"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

func mitigatedConfig(k mitigation.Kind) Config {
	cfg := testConfig()
	cfg.Mitigation = mitigation.Spec{Kind: k, Seed: 42}
	return cfg
}

// TestBootMitigatedDerivesMode: BootMitigated must pick the hypervisor the
// configured defense assumes — Siloz for subarray-group isolation, the
// unmodified baseline for every controller- or allocation-plane kind — and
// Boot must reject the contradictory combination of a Siloz spec on a
// baseline hypervisor (the spec's guarantees would silently not hold).
func TestBootMitigatedDerivesMode(t *testing.T) {
	for _, tc := range []struct {
		kind mitigation.Kind
		want Mode
	}{
		{mitigation.KindNone, ModeBaseline},
		{mitigation.KindPARA, ModeBaseline},
		{mitigation.KindSilverBullet, ModeBaseline},
		{mitigation.KindCATT, ModeBaseline},
		{mitigation.KindSiloz, ModeSiloz},
	} {
		h, err := BootMitigated(mitigatedConfig(tc.kind))
		if err != nil {
			t.Fatalf("BootMitigated(%v): %v", tc.kind, err)
		}
		if h.Mode() != tc.want {
			t.Errorf("BootMitigated(%v) mode = %v, want %v", tc.kind, h.Mode(), tc.want)
		}
	}
	if _, err := Boot(mitigatedConfig(mitigation.KindSiloz), ModeBaseline); err == nil {
		t.Fatal("Boot(ModeBaseline) accepted a KindSiloz mitigation spec")
	}
}

// TestBootAttachesRowDefense: activation-plane kinds must reach the DRAM
// modules — hammering through a VM shows up in the defense overhead ledger
// and the activation tally, and the per-scope seeding makes two identical
// boots produce identical ledgers.
func TestBootAttachesRowDefense(t *testing.T) {
	run := func(k mitigation.Kind) mitigation.Overhead {
		h, err := BootMitigated(mitigatedConfig(k))
		if err != nil {
			t.Fatal(err)
		}
		vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "rd", Socket: 0, MemoryBytes: 32 * geometry.MiB})
		if err != nil {
			t.Fatal(err)
		}
		// Three bursts over the Silver Bullet threshold (1250) and far
		// enough for PARA's p=1/500 coin to win with near certainty.
		for i := 0; i < 3; i++ {
			if err := vm.Hammer(0, 2000, 0); err != nil {
				t.Fatal(err)
			}
		}
		if got := h.Memory().TotalActivations(); got < 6000 {
			t.Errorf("%v: TotalActivations = %d, want >= 6000", k, got)
		}
		return h.Memory().DefenseOverhead()
	}
	for _, k := range []mitigation.Kind{mitigation.KindPARA, mitigation.KindSilverBullet} {
		first := run(k)
		if first.NeighborRefreshes == 0 {
			t.Errorf("%v: no neighbor refreshes recorded after hammering", k)
		}
		if second := run(k); second != first {
			t.Errorf("%v: overhead not reproducible across identical boots: %+v vs %+v", k, second, first)
		}
	}
	// The undefended control must observe activations but never refresh — on
	// a DIMM with its own TRR too, which samples and refreshes every 1000
	// activations here: in-DRAM TRR is part of the part, not a deployed
	// defense, so the overhead ledger does not bill it.
	trr := testProfile()
	trr.TRRTableSize, trr.TRRInterval = 4, 1000
	for _, prof := range []dram.Profile{testProfile(), trr} {
		cfg := mitigatedConfig(mitigation.KindNone)
		cfg.Profiles = []dram.Profile{prof}
		h, err := BootMitigated(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "rd", Socket: 0, MemoryBytes: 32 * geometry.MiB})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Hammer(0, 2000, 0); err != nil {
			t.Fatal(err)
		}
		if ov := h.Memory().DefenseOverhead(); ov.NeighborRefreshes != 0 {
			t.Errorf("undefended boot (TRR table %d) recorded %d refreshes", prof.TRRTableSize, ov.NeighborRefreshes)
		}
		if got := h.Memory().TotalActivations(); got < 2000 {
			t.Errorf("undefended boot (TRR table %d) TotalActivations = %d, want >= 2000", prof.TRRTableSize, got)
		}
	}
}

// TestCATTGuardBandsFlankTenantExtents: a KindCATT boot must claim the
// 2 MiB pages holding the media rows within the blast-radius band of every
// VM's rows — row-space adjacency through the mapper, not physical-address
// adjacency — keep them off-limits to other tenants, account them in
// MitigationBlockedBytes, and give them all back at teardown.
func TestCATTGuardBandsFlankTenantExtents(t *testing.T) {
	h, err := BootMitigated(mitigatedConfig(mitigation.KindCATT))
	if err != nil {
		t.Fatal(err)
	}
	base := h.MitigationBlockedBytes()
	vm1, err := h.CreateVM(kvmProc(), VMSpec{Name: "c1", Socket: 0, MemoryBytes: 32 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	vm2, err := h.CreateVM(kvmProc(), VMSpec{Name: "c2", Socket: 0, MemoryBytes: 32 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	g := testGeometry()
	mapper := h.Memory().Mapper()
	groupBytes := uint64(g.RowGroupBytes())

	guards := 0
	for _, vm := range []*VM{vm1, vm2} {
		gp := vm.GuardPages()
		if len(gp) == 0 {
			t.Fatalf("VM %q has no guard pages under KindCATT", vm.Name())
		}
		guards += len(gp)
		for _, pa := range gp {
			// Guard pages belong to no tenant...
			if vm1.OwnsHPA(pa) || vm2.OwnsHPA(pa) {
				t.Errorf("guard page %#x is tenant-owned", pa)
			}
			// ...and hold at least one media row within the band distance
			// of a row the owning VM's RAM occupies.
			adjacent := false
			for off := uint64(0); off < geometry.PageSize2M && !adjacent; off += groupBytes {
				ma, err := mapper.Decode(pa + off)
				if err != nil {
					continue
				}
				for d := 1; d <= mitigation.DefaultCATTGuardRows && !adjacent; d++ {
					for _, n := range [2]int{ma.Row - d, ma.Row + d} {
						if n < 0 || n >= g.RowsPerBank {
							continue
						}
						nma := ma
						nma.Row = n
						nma.Col = 0
						npa, err := mapper.Encode(nma)
						if err != nil {
							continue
						}
						if vm.OwnsHPA(npa) {
							adjacent = true
							break
						}
					}
				}
			}
			if !adjacent {
				t.Errorf("guard page %#x holds no row within %d of VM %q rows", pa, mitigation.DefaultCATTGuardRows, vm.Name())
			}
		}
	}
	want := base + uint64(guards)*geometry.PageSize2M
	if got := h.MitigationBlockedBytes(); got != want {
		t.Errorf("MitigationBlockedBytes = %d, want %d (%d guard pages)", got, want, guards)
	}
	if err := h.DestroyVM("c1"); err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyVM("c2"); err != nil {
		t.Fatal(err)
	}
	if got := h.MitigationBlockedBytes(); got != base {
		t.Errorf("MitigationBlockedBytes after teardown = %d, want %d", got, base)
	}
}

// TestConcurrentMitigationHammerResize hammers one VM while another is
// resized, under each deployable defense (run under -race via make
// race-quick). Exercises the activation-plane observation path and the
// CATT guard claim/release path concurrently with balloon-backed layout
// churn: no crash, no race, and the only tolerable defense degradation is
// a typed budget exhaustion.
func TestConcurrentMitigationHammerResize(t *testing.T) {
	kinds := []mitigation.Kind{
		mitigation.KindPARA, mitigation.KindSilverBullet, mitigation.KindCATT, mitigation.KindSiloz,
	}
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			h, err := BootMitigated(mitigatedConfig(k))
			if err != nil {
				t.Fatal(err)
			}
			ham, err := h.CreateVM(kvmProc(), VMSpec{Name: "ham", Socket: 0, MemoryBytes: 64 * geometry.MiB})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "rz", Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(1))
				for {
					select {
					case <-stop:
						return
					default:
					}
					gpa := uint64(rng.Intn(32)) * geometry.PageSize2M
					_ = ham.Hammer(gpa, 50, 0)
				}
			}()
			for i := 0; i < 6; i++ {
				target := uint64(32 * geometry.MiB)
				if i%2 == 1 {
					target = 64 * geometry.MiB
				}
				if _, err := h.ResizeVM("rz", target); err != nil {
					t.Errorf("resize %d -> %d MiB: %v", i, target>>20, err)
				}
			}
			close(stop)
			wg.Wait()
			if err := h.Memory().DefenseHealth(); err != nil && !errors.Is(err, mitigation.ErrBudgetExhausted) {
				t.Errorf("defense degraded unexpectedly: %v", err)
			}
			if k == mitigation.KindSiloz {
				for _, f := range h.Memory().Flips() {
					pa, err := h.Memory().FlipPhys(f)
					if err != nil {
						t.Fatal(err)
					}
					if !ham.InDomain(pa) {
						t.Errorf("flip escaped the hammering VM's domain: %v", f)
					}
				}
			}
		})
	}
}

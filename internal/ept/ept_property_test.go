package ept

import (
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// TestEPTMatchesShadowMapProperty drives random map/translate sequences
// against a plain map of expected translations.
func TestEPTMatchesShadowMapProperty(t *testing.T) {
	for _, mode := range []IntegrityMode{NoProtection, SecureEPT} {
		for seed := int64(0); seed < 5; seed++ {
			_, tables, _ := testEnv(t, mode)
			rng := rand.New(rand.NewSource(seed))
			shadow2M := make(map[uint64]uint64)
			shadow4K := make(map[uint64]uint64)
			for step := 0; step < 300; step++ {
				switch rng.Intn(3) {
				case 0: // map a 2M page
					gpa := uint64(rng.Intn(256)) * geometry.PageSize2M
					hpa := uint64(rng.Intn(256)) * geometry.PageSize2M
					if _, taken := shadow2M[gpa]; taken {
						continue
					}
					conflict := false
					for k := range shadow4K {
						if k&^uint64(geometry.PageSize2M-1) == gpa {
							conflict = true
						}
					}
					_, err := tables.MapRun(gpa, []uint64{hpa}, geometry.PageSize2M, true)
					if conflict {
						// Mapping over existing 4K entries is
						// implementation-defined here; skip check.
						continue
					}
					if err != nil {
						t.Fatalf("mode %v seed %d: Map2M: %v", mode, seed, err)
					}
					shadow2M[gpa] = hpa
				case 1: // map a 4K page in a region without a 2M leaf
					gpa := uint64(1)<<33 + uint64(rng.Intn(4096))*geometry.PageSize4K
					hpa := uint64(rng.Intn(1<<20)) * geometry.PageSize4K
					if _, taken := shadow4K[gpa]; taken {
						continue
					}
					if _, err := tables.MapRun(gpa, []uint64{hpa}, geometry.PageSize4K, true); err != nil {
						t.Fatalf("mode %v seed %d: Map4K: %v", mode, seed, err)
					}
					shadow4K[gpa] = hpa
				default: // translate a random known gpa
					for gpa, hpa := range shadow2M {
						off := uint64(rng.Intn(geometry.PageSize2M))
						got, err := tables.Translate(gpa + off)
						if err != nil || got != hpa+off {
							t.Fatalf("mode %v seed %d: 2M translate(%#x) = %#x, %v; want %#x",
								mode, seed, gpa+off, got, err, hpa+off)
						}
						break
					}
					for gpa, hpa := range shadow4K {
						off := uint64(rng.Intn(geometry.PageSize4K))
						got, err := tables.Translate(gpa + off)
						if err != nil || got != hpa+off {
							t.Fatalf("mode %v seed %d: 4K translate = %#x, %v", mode, seed, got, err)
						}
						break
					}
				}
			}
			// Final sweep: every shadow entry still translates.
			for gpa, hpa := range shadow2M {
				got, err := tables.Translate(gpa)
				if err != nil || got != hpa {
					t.Fatalf("final 2M sweep: translate(%#x) = %#x, %v", gpa, got, err)
				}
			}
			for gpa, hpa := range shadow4K {
				got, err := tables.Translate(gpa)
				if err != nil || got != hpa {
					t.Fatalf("final 4K sweep: translate(%#x) = %#x, %v", gpa, got, err)
				}
			}
		}
	}
}

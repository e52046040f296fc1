package attack

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// referencePattern is RandomPattern rebuilt from the exported pieces, drawing
// from rng in the same order: ManySided, then Synchronized, then "-press" and
// a Sprintf'd "-r<rounds>" appended to the name. It also holds ManySided's and
// Synchronized's names to their Sprintf formats, so the reference's name does
// not rest on the name helpers RandomPattern shares with them.
func referencePattern(t *testing.T, rng *rand.Rand, maxActs int) Pattern {
	t.Helper()
	pairs := 1 + rng.Intn(3)
	decoys := rng.Intn(9)
	decoyAmp := 200 + rng.Intn(600)
	aggAmp := 40 + rng.Intn(160)
	p := ManySided(pairs, decoys, decoyAmp, aggAmp, 1)
	if want := fmt.Sprintf("many-sided-%dp%dd", pairs, decoys); p.Name != want {
		t.Fatalf("ManySided named %q, want %q", p.Name, want)
	}
	if decoys > 0 && rng.Intn(3) > 0 {
		interval := candidateIntervals[rng.Intn(len(candidateIntervals))]
		synced := p.Synchronized(interval)
		want := p.Name
		if synced.ActsPerWindow() != p.ActsPerWindow() {
			want += fmt.Sprintf("-sync%d", interval)
		}
		if synced.Name != want {
			t.Fatalf("Synchronized named %q, want %q", synced.Name, want)
		}
		p = synced
	}
	rounds := maxActs / p.ActsPerWindow()
	if rounds < 1 {
		rounds = 1
	}
	p.Rounds = rounds
	if rng.Intn(4) == 0 {
		for i := range p.Schedule {
			p.Schedule[i].OpenNs = int64(rng.Intn(5000))
		}
		p.Name += "-press"
	}
	p.Name += fmt.Sprintf("-r%d", rounds)
	return p
}

// TestRandomPatternMatchesReference draws 10 000 patterns across seeds and
// activation budgets (one that clamps rounds to 1, small and default campaign
// budgets, and one that makes round counts of up to 17 digits)
// and holds each to the reference: name, schedule, rounds, run length, and
// the generator's next draw.
func TestRandomPatternMatchesReference(t *testing.T) {
	const drawsPerCase = 500
	draws, synced, pressed := 0, 0, 0
	for _, seed := range []int64{1, 2, 20260930, -7} {
		for _, maxActs := range []int{1, 2500, 70_000, 1_200_000, math.MaxInt / 2} {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for i := 0; i < drawsPerCase; i++ {
				p, ref := RandomPattern(got, maxActs), referencePattern(t, want, maxActs)
				if p.Name != ref.Name || !slices.Equal(p.Schedule, ref.Schedule) || p.Rounds != ref.Rounds || p.MinRun != ref.MinRun {
					t.Fatalf("seed %d, budget %d, draw %d:\n got %+v\nwant %+v", seed, maxActs, i, p, ref)
				}
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d, budget %d, draw %d: next draw %d, reference's %d", seed, maxActs, i, g, w)
				}
				draws++
				if strings.Contains(p.Name, "-sync") {
					synced++
				}
				if strings.Contains(p.Name, "-press") {
					pressed++
				}
			}
		}
	}
	// Both the synchronized and the RowPress branches must have been drawn.
	if draws < 10_000 || synced == 0 || pressed == 0 {
		t.Fatalf("%d draws, %d synchronized, %d pressed", draws, synced, pressed)
	}
}

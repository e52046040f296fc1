package attack

import (
	"fmt"
	"math/rand"
	"slices"
)

// Batch is one scheduled burst of activations of a run-relative row.
type Batch struct {
	// RunIndex is the row's index within the contiguous run.
	RunIndex int
	// Count is the activations in this burst.
	Count int
	// OpenNs holds the row open per activation (RowPress component).
	OpenNs int64
}

// Pattern is a frequency-domain hammering schedule over a contiguous run of
// rows: Rounds repetitions of the Schedule, in order. Blacksmith-style
// evasion comes from the schedule shape — high-amplitude decoys pin the TRR
// sampler while lower-amplitude aggressor pairs slip past it.
type Pattern struct {
	// Name labels the pattern for reporting.
	Name string
	// Schedule is the per-round batch order.
	Schedule []Batch
	// Rounds is how many times the schedule repeats per refresh window.
	Rounds int
	// MinRun is the smallest run length the pattern fits in.
	MinRun int
}

// ActsPerWindow returns the bank activation budget the pattern consumes.
func (p Pattern) ActsPerWindow() int {
	per := 0
	for _, b := range p.Schedule {
		per += b.Count
	}
	return per * p.Rounds
}

// DoubleSided builds the classic double-sided pattern: two aggressors
// around one victim, no decoys. Defeated by TRR (§2.5); kept as the
// baseline attack.
func DoubleSided(actsPerRound, rounds int) Pattern {
	return Pattern{
		Name: "double-sided",
		Schedule: []Batch{
			{RunIndex: 0, Count: actsPerRound},
			{RunIndex: 2, Count: actsPerRound},
		},
		Rounds: rounds,
		MinRun: 3,
	}
}

// ManySided builds a Blacksmith-style pattern: `decoys` high-amplitude rows
// followed by `pairs` double-sided aggressor pairs at lower amplitude. The
// decoys occupy the TRR sampler's table; each pair's victim sits between
// its aggressors. The layout is compact — contiguous attacker memory only
// yields short runs of consecutive rows (the mapping's chunk structure), so
// decoys sit back to back with a 2-row gap before the first pair.
func ManySided(pairs, decoys, decoyAmp, aggAmp, rounds int) Pattern {
	p := Pattern{
		Name:     fmt.Sprintf("many-sided-%dp%dd", pairs, decoys),
		Schedule: make([]Batch, 0, decoys+2*pairs),
		Rounds:   rounds,
	}
	// Decoys first each round (phase matters: they refill the sampler
	// right after each TRR event).
	for d := 0; d < decoys; d++ {
		p.Schedule = append(p.Schedule, Batch{RunIndex: d, Count: decoyAmp})
	}
	idx := decoys
	if decoys > 0 {
		idx += 2 // keep pair victims outside the decoys' blast radius
	}
	for a := 0; a < pairs; a++ {
		p.Schedule = append(p.Schedule,
			Batch{RunIndex: idx, Count: aggAmp},
			Batch{RunIndex: idx + 2, Count: aggAmp},
		)
		idx += 3
	}
	p.MinRun = idx
	return p
}

// HalfDouble builds a Half-Double pattern [83]: heavily-hammered "far"
// aggressors two rows from the victim, assisted by lightly-hammered "near"
// rows, flip the victim at distance 2 — the attack class that forces modern
// DIMMs to need 4 guard rows per protected row (§6). Layout over a 5-row
// span: far, near, victim, near, far.
func HalfDouble(farActs, nearActs, rounds int) Pattern {
	return Pattern{
		Name: "half-double",
		Schedule: []Batch{
			{RunIndex: 0, Count: farActs},
			{RunIndex: 4, Count: farActs},
			{RunIndex: 1, Count: nearActs},
			{RunIndex: 3, Count: nearActs},
		},
		Rounds: rounds,
		MinRun: 5,
	}
}

// RowPressPattern keeps aggressors open for a long dwell per activation,
// needing far fewer activations (§2.5 RowPress).
func RowPressPattern(actsPerRound, rounds int, openNs int64) Pattern {
	return Pattern{
		Name: "rowpress",
		Schedule: []Batch{
			{RunIndex: 0, Count: actsPerRound, OpenNs: openNs},
			{RunIndex: 2, Count: actsPerRound, OpenNs: openNs},
		},
		Rounds: rounds,
		MinRun: 3,
	}
}

// Synchronized pads the pattern's first decoy batch so that one round
// consumes exactly roundActs activations. Against a periodic TRR mechanism
// firing every roundActs activations, this phase-locks the pattern: every
// TRR event lands at the end of a round, when the sampler table holds only
// decoys, so aggressor pairs are never refreshed — the SMASH/Blacksmith
// synchronization trick. Returns the pattern unchanged if it already
// exceeds roundActs per round or has no decoy to pad.
func (p Pattern) Synchronized(roundActs int) Pattern {
	per := 0
	for _, b := range p.Schedule {
		per += b.Count
	}
	if per >= roundActs || len(p.Schedule) == 0 {
		return p
	}
	p.Schedule = slices.Clone(p.Schedule)
	p.Schedule[0].Count += roundActs - per
	p.Name += fmt.Sprintf("-sync%d", roundActs)
	return p
}

// candidateIntervals are TRR periods the fuzzer tries to synchronize with;
// real Blacksmith sweeps pattern lengths for the same reason.
var candidateIntervals = []int{2500, 4000, 5000, 6000, 8000, 10000}

// RandomPattern synthesizes a fuzzing candidate: random pair count, decoy
// count, amplitudes, dwell and synchronization, bounded by the activation
// budget.
func RandomPattern(rng *rand.Rand, maxActs int) Pattern {
	pairs := 1 + rng.Intn(3)
	decoys := rng.Intn(9)
	decoyAmp := 200 + rng.Intn(600)
	aggAmp := 40 + rng.Intn(160)
	p := ManySided(pairs, decoys, decoyAmp, aggAmp, 1)
	if decoys > 0 && rng.Intn(3) > 0 {
		p = p.Synchronized(candidateIntervals[rng.Intn(len(candidateIntervals))])
	}
	perRound := p.ActsPerWindow()
	rounds := maxActs / perRound
	if rounds < 1 {
		rounds = 1
	}
	p.Rounds = rounds
	if rng.Intn(4) == 0 { // occasionally explore RowPress dwell
		for i := range p.Schedule {
			p.Schedule[i].OpenNs = int64(rng.Intn(5000))
		}
		p.Name += "-press"
	}
	p.Name += fmt.Sprintf("-r%d", rounds)
	return p
}

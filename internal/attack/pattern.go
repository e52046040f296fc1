package attack

import (
	"math/rand"
	"slices"
	"strconv"
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
	return actsPerRound(p.Schedule) * p.Rounds
}

// actsPerRound returns the activations one round of sched consumes.
func actsPerRound(sched []Batch) int {
	per := 0
	for _, b := range sched {
		per += b.Count
	}
	return per
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
	sched, minRun := manySided(pairs, decoys, decoyAmp, aggAmp)
	var name [nameBytes]byte
	return Pattern{
		Name:     string(appendManySidedName(name[:0], pairs, decoys)),
		Schedule: sched,
		Rounds:   rounds,
		MinRun:   minRun,
	}
}

// manySided builds ManySided's schedule in one slice made at its length and
// returns it with the run length it needs.
func manySided(pairs, decoys, decoyAmp, aggAmp int) ([]Batch, int) {
	sched := make([]Batch, 0, decoys+2*pairs)
	// Decoys first each round (phase matters: they refill the sampler
	// right after each TRR event).
	for d := 0; d < decoys; d++ {
		sched = append(sched, Batch{RunIndex: d, Count: decoyAmp})
	}
	idx := decoys
	if decoys > 0 {
		idx += 2 // keep pair victims outside the decoys' blast radius
	}
	for a := 0; a < pairs; a++ {
		sched = append(sched,
			Batch{RunIndex: idx, Count: aggAmp},
			Batch{RunIndex: idx + 2, Count: aggAmp},
		)
		idx += 3
	}
	return sched, idx
}

// nameBytes is the stack buffer a pattern's name is formatted in; every name
// the fuzzer draws fits it, and a longer one spills to the heap.
const nameBytes = 64

// appendManySidedName appends ManySided's name, many-sided-<pairs>p<decoys>d.
func appendManySidedName(b []byte, pairs, decoys int) []byte {
	b = strconv.AppendInt(append(b, "many-sided-"...), int64(pairs), 10)
	b = strconv.AppendInt(append(b, 'p'), int64(decoys), 10)
	return append(b, 'd')
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
	sched := slices.Clone(p.Schedule)
	if !synchronize(sched, roundActs) {
		return p
	}
	p.Schedule = sched
	var name [nameBytes]byte
	p.Name += string(appendSyncName(name[:0], roundActs))
	return p
}

// synchronize pads sched's first batch in place so that one round consumes
// exactly roundActs activations, and reports whether it did: it leaves a
// schedule that is empty or already reaches roundActs alone.
func synchronize(sched []Batch, roundActs int) bool {
	per := actsPerRound(sched)
	if per >= roundActs || len(sched) == 0 {
		return false
	}
	sched[0].Count += roundActs - per
	return true
}

// appendSyncName appends Synchronized's name suffix, -sync<roundActs>.
func appendSyncName(b []byte, roundActs int) []byte {
	return strconv.AppendInt(append(b, "-sync"...), int64(roundActs), 10)
}

// candidateIntervals are TRR periods the fuzzer tries to synchronize with;
// real Blacksmith sweeps pattern lengths for the same reason.
var candidateIntervals = []int{2500, 4000, 5000, 6000, 8000, 10000}

// RandomPattern synthesizes a fuzzing candidate: random pair count, decoy
// count, amplitudes, dwell and synchronization, bounded by the activation
// budget. It is ManySided, then Synchronized, then "-press" and "-r<rounds>"
// appended to the name, built in place: the schedule and the name are its
// only allocations.
func RandomPattern(rng *rand.Rand, maxActs int) Pattern {
	pairs := 1 + rng.Intn(3)
	decoys := rng.Intn(9)
	decoyAmp := 200 + rng.Intn(600)
	aggAmp := 40 + rng.Intn(160)
	sched, minRun := manySided(pairs, decoys, decoyAmp, aggAmp)
	var buf [nameBytes]byte
	name := appendManySidedName(buf[:0], pairs, decoys)
	if decoys > 0 && rng.Intn(3) > 0 {
		if interval := candidateIntervals[rng.Intn(len(candidateIntervals))]; synchronize(sched, interval) {
			name = appendSyncName(name, interval)
		}
	}
	rounds := max(maxActs/actsPerRound(sched), 1)
	if rng.Intn(4) == 0 { // occasionally explore RowPress dwell
		for i := range sched {
			sched[i].OpenNs = int64(rng.Intn(5000))
		}
		name = append(name, "-press"...)
	}
	name = strconv.AppendInt(append(name, "-r"...), int64(rounds), 10)
	return Pattern{Name: string(name), Schedule: sched, Rounds: rounds, MinRun: minRun}
}

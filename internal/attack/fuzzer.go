package attack

import (
	"fmt"
)

// FuzzerConfig parameterizes a fuzzing campaign.
type FuzzerConfig struct {
	// Patterns is how many candidate patterns to synthesize and try.
	Patterns int
	// WindowsPerPattern is how many refresh windows each pattern hammers.
	WindowsPerPattern int
	// MaxActsPerWindow caps per-bank activations per window (DRAM budget).
	MaxActsPerWindow int
	// FillPattern is the data written before hammering (flips show as
	// deviations).
	FillPattern byte
	// Seed drives pattern synthesis.
	Seed int64
}

// DefaultFuzzerConfig returns a campaign sized like the unit of work the
// experiments use per DIMM.
func DefaultFuzzerConfig() FuzzerConfig {
	return FuzzerConfig{
		Patterns:          24,
		WindowsPerPattern: 2,
		MaxActsPerWindow:  1_200_000,
		FillPattern:       0xAA,
		Seed:              1,
	}
}

// Report summarizes a campaign from the attacker's view.
type Report struct {
	// PatternsTried counts synthesized candidates.
	PatternsTried int
	// EffectivePatterns counts candidates that produced at least one
	// observable corruption.
	EffectivePatterns int
	// Corruptions are the attacker-visible flipped bytes.
	Corruptions []Corruption
	// BestPattern names the first effective pattern.
	BestPattern string
}

// Fuzzer drives patterns against a target.
type Fuzzer struct {
	cfg FuzzerConfig
}

// NewFuzzer builds a fuzzer.
func NewFuzzer(cfg FuzzerConfig) *Fuzzer {
	return &Fuzzer{cfg: cfg}
}

// Run executes the campaign: for each synthesized pattern, pick a
// contiguous row run, fill it, hammer for the configured windows, scan.
func (f *Fuzzer) Run(t Target) (Report, error) {
	rng := rngFrom(f.cfg.Seed)
	allRuns := runs(t.Rows())
	if len(allRuns) == 0 {
		return Report{}, fmt.Errorf("attack: target has no hammerable rows")
	}
	var rep Report
	for i := 0; i < f.cfg.Patterns; i++ {
		p := RandomPattern(rng, f.cfg.MaxActsPerWindow)
		run := allRuns[rng.Intn(len(allRuns))]
		if len(run) < p.MinRun {
			continue
		}
		rep.PatternsTried++
		// Offset the pattern randomly within the run.
		base := 0
		if len(run) > p.MinRun {
			base = rng.Intn(len(run) - p.MinRun)
		}
		// The pattern's corruptions are appended to the report's in place;
		// on an error the report keeps what it held before the pattern.
		cs, err := f.hammerPattern(t, run, base, p, rep.Corruptions)
		if err != nil {
			return rep, err
		}
		if len(cs) > len(rep.Corruptions) {
			rep.EffectivePatterns++
			if rep.BestPattern == "" {
				rep.BestPattern = p.Name
			}
		}
		rep.Corruptions = cs
	}
	return rep, nil
}

// HammerPattern runs one pattern at a base offset within a row run and
// returns the corruptions the attacker can observe in the pattern's rows.
func (f *Fuzzer) HammerPattern(t Target, run []RowRef, base int, p Pattern) ([]Corruption, error) {
	return f.hammerPattern(t, run, base, p, nil)
}

// hammerPattern is HammerPattern appending the corruptions to out; on an
// error it returns nil.
func (f *Fuzzer) hammerPattern(t Target, run []RowRef, base int, p Pattern, out []Corruption) ([]Corruption, error) {
	if base+p.MinRun > len(run) {
		return nil, fmt.Errorf("attack: pattern %s needs %d rows, run has %d after base %d",
			p.Name, p.MinRun, len(run), base)
	}
	span := run[base : base+p.MinRun]
	// Sweep complementary data patterns: a weak cell's discharge is only
	// observable when the stored bit differs from its fail value, so real
	// templating runs both a pattern and its complement.
	for _, pat := range []byte{f.cfg.FillPattern, ^f.cfg.FillPattern} {
		for _, r := range span {
			if err := t.FillRow(r, pat); err != nil {
				return nil, err
			}
		}
		for w := 0; w < f.cfg.WindowsPerPattern; w++ {
			if err := f.hammerWindow(t, run, base, p); err != nil {
				return nil, err
			}
			t.EndWindow()
		}
		for _, r := range span {
			cs, err := t.CheckRow(r, pat)
			if err != nil {
				return nil, err
			}
			out = append(out, cs...)
		}
	}
	return out, nil
}

// hammerWindow executes one window's worth of the schedule.
func (f *Fuzzer) hammerWindow(t Target, run []RowRef, base int, p Pattern) error {
	budget := f.cfg.MaxActsPerWindow
	for r := 0; r < p.Rounds; r++ {
		for _, b := range p.Schedule {
			if budget < b.Count {
				return nil // respect the DRAM activation budget
			}
			budget -= b.Count
			if err := t.Hammer(run[base+b.RunIndex], b.Count, b.OpenNs); err != nil {
				return err
			}
		}
	}
	return nil
}

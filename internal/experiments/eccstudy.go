package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/geometry"
)

// ECCStudyResult reproduces the paper's argument for why ECC alone cannot
// replace isolation (§2.5, §3):
//
//   - most hammered words suffer single-bit errors: corrected, but each
//     correction is an observable platform event (Copy-on-Flip's detection
//     signal — and an attacker-visible side channel);
//   - some words take multi-bit errors: uncorrectable machine checks;
//   - and whether a given weak cell produces a correction event depends on
//     the stored data, so correction patterns leak victim contents
//     (RAMBleed-style inference).
type ECCStudyResult struct {
	// WordsClean, WordsCorrected, WordsUncorrectable, WordsMiscorrected
	// classify the victim row's 64-bit words after hammering.
	WordsClean, WordsCorrected, WordsUncorrectable, WordsMiscorrected int
	// CorrectionEventsA and CorrectionEventsB are correctable-error
	// counts when the victim stores secret A (0xAA) vs secret B (0x55).
	CorrectionEventsA, CorrectionEventsB int
	// Leak reports whether correction counts distinguish the secrets.
	Leak bool
}

// eccExp is the "ecc" experiment: ECC under Rowhammer.
func eccExp(ctx context.Context, pool *Pool) (*Result, error) {
	res, err := onPool(ctx, pool, ECCStudy)
	if err != nil {
		return nil, err
	}
	r := &Result{Name: "ecc", Title: "ECC under Rowhammer (§2.5, §3)"}
	r.scalar("words_clean", float64(res.WordsClean))
	r.scalar("words_corrected", float64(res.WordsCorrected))
	r.scalar("words_uncorrectable", float64(res.WordsUncorrectable))
	r.scalar("words_miscorrected", float64(res.WordsMiscorrected))
	r.scalar("correction_events_secret_a", float64(res.CorrectionEventsA))
	r.scalar("correction_events_secret_b", float64(res.CorrectionEventsB))
	r.check("multibit_errors_present", res.WordsUncorrectable > 0,
		fmt.Sprintf("%d uncorrectable words: ECC alone yields machine checks", res.WordsUncorrectable))
	r.check("correction_side_channel", res.Leak,
		fmt.Sprintf("correction events differ by stored secret (%d vs %d)",
			res.CorrectionEventsA, res.CorrectionEventsB))
	r.Notes = append(r.Notes,
		"each correction is an attacker-visible platform event; patterns depend on victim data")
	return r, nil
}

// eccGeometry is a small single-module server for the study.
func eccGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets: 1, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 2, RowsPerBank: 2048, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

// hammerVictim fills the victim row with pat, hammers both neighbours hard,
// and returns the row's resulting bytes.
func hammerVictim(prof dram.Profile, victim int, pat byte) ([]byte, error) {
	g := eccGeometry()
	mod, err := dram.NewModule(g, prof, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	b := geometry.BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 0}
	fill := bytes.Repeat([]byte{pat}, g.RowBytes)
	if err := mod.WriteRow(b, victim, 0, fill); err != nil {
		return nil, err
	}
	for _, agg := range []int{victim - 1, victim + 1} {
		if err := mod.ActivateRow(b, agg, int(prof.HammerThreshold)*2, 0); err != nil {
			return nil, err
		}
	}
	out := make([]byte, g.RowBytes)
	if err := mod.ReadRow(b, victim, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// classify runs SEC-DED over the row, comparing against the written
// pattern; check bits are those computed at write time.
func classify(rowBytes []byte, pat byte, res *ECCStudyResult) int {
	var expected [8]byte
	for i := range expected {
		expected[i] = pat
	}
	want := binary.LittleEndian.Uint64(expected[:])
	check := ecc.Encode(want)
	corrections := 0
	for off := 0; off+8 <= len(rowBytes); off += 8 {
		got := binary.LittleEndian.Uint64(rowBytes[off:])
		data, _, r := ecc.Decode(got, check)
		switch {
		case got == want && r == ecc.OK:
			res.WordsClean++
		case r == ecc.Corrected && data == want:
			res.WordsCorrected++
			corrections++
		case r == ecc.Uncorrectable:
			res.WordsUncorrectable++
		default:
			// Decoded "successfully" to the wrong value: silent
			// corruption despite ECC (the [25] attack surface).
			res.WordsMiscorrected++
		}
	}
	return corrections
}

// ECCStudy hammers one victim row under two different stored secrets and
// runs SEC-DED over the result.
func ECCStudy() (ECCStudyResult, error) {
	var res ECCStudyResult
	prof := dram.ProfileF()
	prof.Transforms = addr.TransformConfig{}
	prof.VulnerableRowFraction = 1
	prof.WeakCellsPerRow = 40 // enough weak cells for multi-bit words
	prof.HammerThreshold = 10_000

	rowA, err := hammerVictim(prof, 700, 0xAA)
	if err != nil {
		return res, err
	}
	res.CorrectionEventsA = classify(rowA, 0xAA, &res)

	// Same row, same weak cells, different secret: the correction-event
	// pattern changes with the data.
	var resB ECCStudyResult
	rowB, err := hammerVictim(prof, 700, 0x55)
	if err != nil {
		return res, err
	}
	res.CorrectionEventsB = classify(rowB, 0x55, &resB)

	res.Leak = res.CorrectionEventsA != res.CorrectionEventsB
	return res, nil
}

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

// eccExp is the "ecc" experiment: the paper's argument for why ECC alone
// cannot replace isolation (§2.5, §3). One victim row is hammered under two
// different stored secrets and SEC-DED runs over the result:
//
//   - most hammered words suffer single-bit errors: corrected, but each
//     correction is an observable platform event (Copy-on-Flip's detection
//     signal — and an attacker-visible side channel);
//   - some words take multi-bit errors: uncorrectable machine checks;
//   - and whether a given weak cell produces a correction event depends on
//     the stored data, so correction patterns leak victim contents
//     (RAMBleed-style inference).
func eccExp(ctx context.Context, pool *Pool) (*Result, error) {
	return onPool(ctx, pool, func() (*Result, error) {
		prof := dram.ProfileF()
		prof.Transforms = addr.TransformConfig{}
		prof.VulnerableRowFraction = 1
		prof.WeakCellsPerRow = 40 // enough weak cells for multi-bit words
		prof.HammerThreshold = 10_000

		// Secret A (0xAA), then the same row and the same weak cells under
		// secret B (0x55): the correction-event pattern changes with the data.
		rowA, err := hammerVictim(prof, 700, 0xAA)
		if err != nil {
			return nil, err
		}
		clean, corrected, uncorrectable, miscorrected := classify(rowA, 0xAA)
		rowB, err := hammerVictim(prof, 700, 0x55)
		if err != nil {
			return nil, err
		}
		_, correctedB, _, _ := classify(rowB, 0x55)

		r := &Result{Name: "ecc", Title: "ECC under Rowhammer (§2.5, §3)"}
		r.scalar("words_clean", float64(clean))
		r.scalar("words_corrected", float64(corrected))
		r.scalar("words_uncorrectable", float64(uncorrectable))
		r.scalar("words_miscorrected", float64(miscorrected))
		r.scalar("correction_events_secret_a", float64(corrected))
		r.scalar("correction_events_secret_b", float64(correctedB))
		r.check("multibit_errors_present", uncorrectable > 0,
			fmt.Sprintf("%d uncorrectable words: ECC alone yields machine checks", uncorrectable))
		r.check("correction_side_channel", corrected != correctedB,
			fmt.Sprintf("correction events differ by stored secret (%d vs %d)",
				corrected, correctedB))
		r.Notes = append(r.Notes,
			"each correction is an attacker-visible platform event; patterns depend on victim data")
		return r, nil
	})
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
// pattern, and counts its 64-bit words by outcome; each corrected word is
// one correctable-error event. Check bits are those computed at write time.
func classify(rowBytes []byte, pat byte) (clean, corrected, uncorrectable, miscorrected int) {
	var expected [8]byte
	for i := range expected {
		expected[i] = pat
	}
	want := binary.LittleEndian.Uint64(expected[:])
	check := ecc.Encode(want)
	for off := 0; off+8 <= len(rowBytes); off += 8 {
		got := binary.LittleEndian.Uint64(rowBytes[off:])
		data, _, r := ecc.Decode(got, check)
		switch {
		case got == want && r == ecc.OK:
			clean++
		case r == ecc.Corrected && data == want:
			corrected++
		case r == ecc.Uncorrectable:
			uncorrectable++
		default:
			// Decoded "successfully" to the wrong value: silent
			// corruption despite ECC (the [25] attack surface).
			miscorrected++
		}
	}
	return clean, corrected, uncorrectable, miscorrected
}

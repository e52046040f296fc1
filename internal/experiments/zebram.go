package experiments

import (
	"context"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/geometry"
)

// This file makes the §3 guard-row comparison executable. A ZebRAM-style
// scheme reserves guard rows between rows of different isolation domains:
// at 1 guard per normal row it costs 50% of the protected region, and —
// because modern DIMMs disturb rows two away (Half-Double) — it *still*
// leaks; safety requires 4 guards per normal row (80%). Siloz's subarray
// groups get the same containment from the silicon itself at ~0% cost.

// zebramExp is the "zebram" experiment: the guard-row schemes and the Siloz
// equivalent, one row per configuration — the DRAM share reserved as guards,
// the flips landing in the other domain's rows, and whether isolation held.
func zebramExp(ctx context.Context, pool *Pool) (*Result, error) {
	return onPool(ctx, pool, func() (*Result, error) {
		r := &Result{
			Name:    "zebram",
			Title:   "Guard-row schemes vs subarray groups under a blast-radius-2 DIMM (§3)",
			Columns: []string{"overhead", "cross flips", "safe"},
			Units:   []string{"%", "", ""},
		}
		for _, c := range []struct {
			scheme   string
			stride   int
			overhead float64
		}{
			{"no guards (baseline placement)", 1, 0},
			{"ZebRAM, 1 guard/row (50%)", 2, 50},
			{"ZebRAM, 2 guards/row (66%)", 3, 100.0 * 2 / 3},
			{"ZebRAM, 4 guards/row (80%)", 5, 80},
		} {
			cross, err := zebramProbe(c.stride)
			if err != nil {
				return nil, err
			}
			r.row(c.scheme, c.overhead, cross, cross == 0)
			if c.stride == 2 { // the original ZebRAM layout
				r.check("one_guard_leaks_half_double", cross != 0,
					"1 guard/row still leaks under blast radius 2 (Half-Double)")
			}
		}
		// Siloz: the two domains are separate subarray groups; hammering all
		// of A's rows cannot reach B's subarray at any cost.
		cross, err := silozProbe()
		if err != nil {
			return nil, err
		}
		const silozOverheadPct = 0.024 // the EPT block, §5.4
		r.row("Siloz subarray groups (~0%)", silozOverheadPct, cross, cross == 0)
		r.scalar("siloz_cross_flips", float64(cross))
		r.scalar("siloz_overhead_pct", silozOverheadPct)
		r.check("siloz_contains", cross == 0, "subarray groups contain all flips at ~0% cost")
		return r, nil
	})
}

// zebramRowsPerSubarray is the subarray size of the comparison's bank.
const zebramRowsPerSubarray = 512

// zebramBank builds a fresh single-socket module of a fully-vulnerable
// blast-radius-2 DIMM and names the bank both probes hammer.
func zebramBank() (*dram.Module, geometry.BankID, dram.Profile, error) {
	g := geometry.Geometry{
		Sockets: 1, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 8, RowsPerBank: 2048, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: zebramRowsPerSubarray,
	}
	prof := dram.ProfileF() // blast radius 2
	prof.VulnerableRowFraction = 1
	prof.Transforms = addr.TransformConfig{}
	mod, err := dram.NewModule(g, prof, 0, 0, nil)
	return mod, geometry.BankID{}, prof, err
}

// hammerOwned hammers each listed row hard, one refresh window apiece (a
// fresh activation budget per aggressor), and counts the resulting flips
// that land in rows for which victim reports true.
func hammerOwned(rows []int, victim func(row int) bool) (int, error) {
	mod, bank, prof, err := zebramBank()
	if err != nil {
		return 0, err
	}
	for _, r := range rows {
		if err := mod.ActivateRow(bank, r, int(prof.HammerThreshold)*5, 0); err != nil {
			return 0, err
		}
		mod.Refresh()
	}
	cross := 0
	for _, f := range mod.Flips() {
		if victim(f.MediaRow) {
			cross++
		}
	}
	return cross, nil
}

// zebramProbe lays two domains' rows into one subarray under a guard-row
// scheme with the given stride (domain rows at multiples of stride, guards
// between; stride 1 = adjacent domains, no guards), alternating ownership
// A, B, A, B... Domain A hammers every row it owns, in ascending order so
// the flip set is reproducible; flips landing in domain B's rows count.
func zebramProbe(stride int) (int, error) {
	var aRows []int
	bRows := map[int]bool{}
	for r, usable := 0, 0; r < zebramRowsPerSubarray; r, usable = r+stride, usable+1 {
		if usable%2 == 0 {
			aRows = append(aRows, r)
		} else {
			bRows[r] = true
		}
	}
	return hammerOwned(aRows, func(row int) bool { return bRows[row] })
}

// silozProbe gives domain A one whole subarray and B the next, A hammering
// its boundary-most rows plus a spread.
func silozProbe() (int, error) {
	return hammerOwned([]int{509, 510, 511, 100, 200, 300}, func(row int) bool {
		return row >= zebramRowsPerSubarray && row < 2*zebramRowsPerSubarray
	})
}

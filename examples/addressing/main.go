// Addressing: a walkthrough of the translation machinery Siloz builds on —
// physical-to-media decode on a Skylake-like server (§2.4, §4.2), the
// subarray group layout it induces, DDR4 internal row transformations (§6),
// and how non-power-of-two subarray sizes force artificial groups with
// boundary guard rows.
package main

import (
	"fmt"
	"log"

	"repro/internal/addr"
	"repro/internal/geometry"
	"repro/internal/subarray"
)

func main() {
	log.SetFlags(0)
	g := geometry.Default()
	mapper, err := addr.NewMapper(g, addr.KindSkylake)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %s\n\n", g)

	// 1. Cache-line interleaving: consecutive lines spread across banks.
	fmt.Println("physical-to-media decode (consecutive cache lines):")
	for i := 0; i < 4; i++ {
		pa := uint64(i * geometry.CacheLineSize)
		ma, err := mapper.Decode(pa)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  pa %#06x -> %v\n", pa, ma)
	}

	// 2. The chunk/jump structure: ascending addresses fill row groups in
	// 24 MiB chunks, alternating between two physical ranges.
	fmt.Println("\nrow groups along ascending physical addresses:")
	for _, pa := range []uint64{0, 24 << 20, uint64(g.SocketBytes() / 2), 768 << 20} {
		ma, err := mapper.Decode(pa)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  pa %#12x -> row group %5d (subarray group %d)\n", pa, ma.Row, ma.Row/g.RowsPerSubarray)
	}

	// 3. Subarray groups as computed at boot (§5.3), for DIMMs applying
	// every DDR4 transform.
	layout, err := subarray.NewLayout(g, mapper, addr.AllTransforms())
	if err != nil {
		log.Fatal(err)
	}
	grp := layout.Group(0, 1)
	fmt.Printf("\nsubarray group (socket 0, index 1): rows [%d,%d], %d physical ranges, %.2f GiB\n",
		grp.FirstRow, grp.LastRow, len(grp.Ranges), float64(grp.Bytes())/float64(geometry.GiB))
	for i, r := range grp.Ranges {
		fmt.Printf("  range %d: %v (%d MiB)\n", i, r, r.Bytes()>>20)
	}

	// 4. DDR4 internal transformations (§6).
	im := addr.NewInternalMapper(g, addr.AllTransforms())
	evenRank := geometry.BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 0}
	oddRank := geometry.BankID{Socket: 0, DIMM: 0, Rank: 1, Bank: 0}
	fmt.Println("\nDDR4 internal row mapping of media row 0b0_0001_1000 (=24):")
	for _, tc := range []struct {
		label string
		bank  geometry.BankID
		side  addr.Side
	}{
		{"even rank, A side", evenRank, addr.SideA},
		{"even rank, B side (inverted)", evenRank, addr.SideB},
		{"odd rank,  A side (mirrored)", oddRank, addr.SideA},
		{"odd rank,  B side (both)", oddRank, addr.SideB},
	} {
		internal := im.InternalRow(tc.bank, 24, tc.side)
		fmt.Printf("  %-30s -> internal row %4d (same subarray: %v)\n",
			tc.label, internal, internal/g.RowsPerSubarray == 24/g.RowsPerSubarray)
	}

	// 5. Non-power-of-two subarray sizes force artificial groups (§6).
	ng := geometry.Geometry{
		Sockets: 1, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 8, RowsPerBank: 5120, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 640,
	}
	nm, err := addr.NewMapper(ng, addr.KindSkylake)
	if err != nil {
		log.Fatal(err)
	}
	nl, err := subarray.NewLayout(ng, nm, addr.AllTransforms())
	if err != nil {
		log.Fatal(err)
	}
	guards := nl.BoundaryGuardRows()
	fmt.Printf("\n640-row subarrays: artificial=%v, managed size %d rows, %d boundary guard rows (%.2f%% of DRAM)\n",
		nl.Artificial(), nl.RowsPerGroup(), len(guards), 100*float64(len(guards))/float64(ng.RowsPerBank))
	fmt.Printf("  first guard rows: %v ...\n", guards[:8])
}

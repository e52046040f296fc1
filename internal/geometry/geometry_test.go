package geometry

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultMatchesPaperTable2(t *testing.T) {
	g := Default()
	if err := g.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	if got := g.BanksPerSocket(); got != 192 {
		t.Errorf("BanksPerSocket = %d, want 192", got)
	}
	if got := g.SocketBytes(); got != 192*GiB {
		t.Errorf("SocketBytes = %d, want 192 GiB", got)
	}
	if got := g.TotalBytes(); got != 384*GiB {
		t.Errorf("TotalBytes = %d, want 384 GiB", got)
	}
	if got := g.BankBytes(); got != 1*GiB {
		t.Errorf("BankBytes = %d, want 1 GiB", got)
	}
	// §4.1: 192 banks * 1024 rows * 8 KiB = 1.5 GiB subarray groups.
	if got := g.SubarrayGroupBytes(); got != 3*GiB/2 {
		t.Errorf("SubarrayGroupBytes = %d, want 1.5 GiB", got)
	}
	if got := g.SubarraysPerBank(); got != 128 {
		t.Errorf("SubarraysPerBank = %d, want 128", got)
	}
}

func TestSubarraySizeVariants(t *testing.T) {
	// §4.1: for subarray sizes 512-2048 the group size is 0.75-3 GiB.
	for _, tc := range []struct {
		rows  int
		bytes int64
	}{
		{512, 3 * GiB / 4},
		{1024, 3 * GiB / 2},
		{2048, 3 * GiB},
	} {
		g := Default().WithSubarraySize(tc.rows)
		if err := g.Validate(); err != nil {
			t.Fatalf("variant %d invalid: %v", tc.rows, err)
		}
		if got := g.SubarrayGroupBytes(); got != tc.bytes {
			t.Errorf("rows=%d: SubarrayGroupBytes = %d, want %d", tc.rows, got, tc.bytes)
		}
	}
}

func TestValidateRejectsBadGeometries(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Geometry)
	}{
		{"zero sockets", func(g *Geometry) { g.Sockets = 0 }},
		{"negative cores", func(g *Geometry) { g.CoresPerSocket = -1 }},
		{"zero dimms", func(g *Geometry) { g.DIMMsPerSocket = 0 }},
		{"zero ranks", func(g *Geometry) { g.RanksPerDIMM = 0 }},
		{"zero banks", func(g *Geometry) { g.BanksPerRank = 0 }},
		{"zero rows", func(g *Geometry) { g.RowsPerBank = 0 }},
		{"row not cacheline multiple", func(g *Geometry) { g.RowBytes = 100 }},
		{"zero subarray", func(g *Geometry) { g.RowsPerSubarray = 0 }},
		{"subarray not dividing bank", func(g *Geometry) { g.RowsPerSubarray = 1000 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := Default()
			tc.mutate(&g)
			if err := g.Validate(); err == nil {
				t.Errorf("Validate accepted invalid geometry %+v", g)
			}
		})
	}
}

func TestBankIDFlatRoundTrip(t *testing.T) {
	g := Default()
	for flat := 0; flat < g.TotalBanks(); flat++ {
		b := BankFromFlat(g, flat)
		if !b.Valid(g) {
			t.Fatalf("BankFromFlat(%d) = %v invalid", flat, b)
		}
		if got := b.Flat(g); got != flat {
			t.Fatalf("Flat(BankFromFlat(%d)) = %d", flat, got)
		}
	}
}

func TestBankIDFlatRoundTripProperty(t *testing.T) {
	g := Geometry{
		Sockets: 3, CoresPerSocket: 8, DIMMsPerSocket: 5, RanksPerDIMM: 2,
		BanksPerRank: 16, RowsPerBank: 4096, RowBytes: 8 * KiB, RowsPerSubarray: 512,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := BankID{
			Socket: r.Intn(g.Sockets),
			DIMM:   r.Intn(g.DIMMsPerSocket),
			Rank:   r.Intn(g.RanksPerDIMM),
			Bank:   r.Intn(g.BanksPerRank),
		}
		return BankFromFlat(g, b.Flat(g)) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSocketFlatDenseWithinSocket: the within-socket indexes [0,
// BanksPerSocket) name every bank of the socket once, in Flat's order.
func TestSocketFlatDenseWithinSocket(t *testing.T) {
	g := Default()
	base := g.BanksPerSocket() // socket 1's first Flat index
	for idx := 0; idx < g.BanksPerSocket(); idx++ {
		b := BankFromSocketFlat(g, 1, idx)
		if !b.Valid(g) || b.Socket != 1 || b.Flat(g) != base+idx {
			t.Fatalf("BankFromSocketFlat(socket 1, %d) = %v (flat %d), want flat %d", idx, b, b.Flat(g), base+idx)
		}
	}
}

func TestMediaAddrValid(t *testing.T) {
	g := Default()
	b := BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 0}
	m := MediaAddr{Bank: b, Row: 1024, Col: 0}
	if !m.Valid(g) {
		t.Fatalf("%v should be valid", m)
	}
	for _, bad := range []MediaAddr{
		{Bank: b, Row: -1, Col: 0},
		{Bank: b, Row: g.RowsPerBank, Col: 0},
		{Bank: b, Row: 0, Col: g.RowBytes},
		{Bank: BankID{Socket: 2}, Row: 0, Col: 0},
	} {
		if bad.Valid(g) {
			t.Errorf("%v should be invalid", bad)
		}
	}
}

func TestRowGroupBytes(t *testing.T) {
	g := Default()
	if got := g.RowGroupBytes(); got != int64(192*8*KiB) {
		t.Errorf("RowGroupBytes = %d, want %d", got, 192*8*KiB)
	}
}

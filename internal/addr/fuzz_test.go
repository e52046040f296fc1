package addr

import (
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// FuzzSkylakeRoundTrip checks Decode/Encode bijectivity and validity for
// arbitrary physical addresses (out-of-range inputs must error, in-range
// ones must round-trip).
func FuzzSkylakeRoundTrip(f *testing.F) {
	g := geometry.Default()
	m, err := NewSkylakeMapper(g)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(0))
	f.Add(uint64(g.TotalBytes()) - 1)
	f.Add(uint64(g.SocketBytes()))
	f.Add(uint64(768)<<20 - 64)
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, pa uint64) {
		ma, err := m.Decode(pa)
		if pa >= uint64(g.TotalBytes()) {
			if err == nil {
				t.Fatalf("out-of-range pa %#x decoded", pa)
			}
			return
		}
		if err != nil {
			t.Fatalf("Decode(%#x): %v", pa, err)
		}
		if !ma.Valid(g) {
			t.Fatalf("Decode(%#x) invalid: %v", pa, ma)
		}
		back, err := m.Encode(ma)
		if err != nil || back != pa {
			t.Fatalf("round trip %#x -> %v -> %#x (%v)", pa, ma, back, err)
		}
	})
}

// refMapper is a Mapper whose fast Decode has a retained divide/modulo
// reference implementation to compare against.
type refMapper interface {
	Mapper
	decodeRef(pa uint64) (geometry.MediaAddr, error)
}

// equivalenceMappers builds one mapper per geometry in use across the repo:
// the evaluation server, the DDR5 and HBM2 variants (§8.2), a sub-NUMA
// cluster split (§8.1), the reduced geometries the registry benchmarks and
// `siloz infer` run on, and partitioned mappers at several splits.
func equivalenceMappers(t testing.TB) []refMapper {
	t.Helper()
	benchG := geometry.Geometry{
		Sockets: 2, CoresPerSocket: 8, DIMMsPerSocket: 2, RanksPerDIMM: 2,
		BanksPerRank: 4, RowsPerBank: 4096, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
	inferG := geometry.Geometry{
		Sockets: 1, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 8, RowsPerBank: 8192, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 1024,
	}
	// DDR5 (§8.2): twice DDR4's banks per rank.
	ddr5G := geometry.Default()
	ddr5G.BanksPerRank = 32
	// HBM2-like stacks (§8.2): eight single-rank pseudo-channels of 32 banks.
	hbmG := geometry.Geometry{
		Sockets: 2, CoresPerSocket: 40, DIMMsPerSocket: 8, RanksPerDIMM: 1,
		BanksPerRank: 32, RowsPerBank: 64 * 1024, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 1024,
	}
	snc, err := geometry.Default().WithSNC(2)
	if err != nil {
		t.Fatal(err)
	}
	var ms []refMapper
	for _, g := range []geometry.Geometry{
		geometry.Default(), ddr5G, hbmG,
		snc, benchG, inferG,
	} {
		sky, err := NewSkylakeMapper(g)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := NewLinearMapper(g)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, sky, lin)
		for _, parts := range []int{2, 4} {
			if g.BanksPerSocket()%parts != 0 {
				continue
			}
			pm, err := NewPartitionedMapper(g, parts)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, pm)
		}
	}
	return ms
}

// checkFastPathAt demands that the LUT/reciprocal fast path and the
// divide/modulo reference agree at pa — same media address or same error —
// and that the fast Encode inverts the fast Decode exactly.
func checkFastPathAt(t *testing.T, m refMapper, pa uint64) {
	t.Helper()
	fast, fastErr := m.Decode(pa)
	ref, refErr := m.decodeRef(pa)
	if (fastErr == nil) != (refErr == nil) {
		t.Fatalf("%T Decode(%#x): fast err %v, ref err %v", m, pa, fastErr, refErr)
	}
	if fastErr != nil {
		return
	}
	if fast != ref {
		t.Fatalf("%T Decode(%#x): fast %v, ref %v", m, pa, fast, ref)
	}
	back, err := m.Encode(fast)
	if err != nil || back != pa {
		t.Fatalf("%T round trip %#x -> %v -> %#x (%v)", m, pa, fast, back, err)
	}
	if e, ok := m.(interface {
		encodeRef(geometry.MediaAddr) (uint64, error)
	}); ok {
		if ref, err := e.encodeRef(fast); err != nil || ref != pa {
			t.Fatalf("%T Encode(%v): fast %#x, ref %#x (%v)", m, fast, back, ref, err)
		}
	}
	bank, row, socket, err := m.DecodeBank(pa)
	if err != nil {
		t.Fatalf("%T DecodeBank(%#x): %v", m, pa, err)
	}
	if bank != fast.Bank.Flat(m.Geometry()) || row != fast.Row || socket != fast.Bank.Socket {
		t.Fatalf("%T DecodeBank(%#x) = (%d,%d,%d), Decode says (%d,%d,%d)",
			m, pa, bank, row, socket, fast.Bank.Flat(m.Geometry()), fast.Row, fast.Bank.Socket)
	}
}

// FuzzMapperFastPathEquivalence cross-checks the fast Decode path against
// the retained reference arithmetic for every geometry in use.
func FuzzMapperFastPathEquivalence(f *testing.F) {
	ms := equivalenceMappers(f)
	f.Add(uint64(0), uint8(0))
	f.Add(uint64(768)<<20-64, uint8(0))
	f.Add(uint64(geometry.Default().SocketBytes()), uint8(0))
	f.Add(^uint64(0), uint8(3))
	for i := range ms {
		f.Add(uint64(geometry.Default().TotalBytes())-1, uint8(i))
	}
	f.Fuzz(func(t *testing.T, pa uint64, which uint8) {
		checkFastPathAt(t, ms[int(which)%len(ms)], pa)
	})
}

// TestMapperFastPathEquivalence sweeps randomized and boundary addresses
// through every mapper on every normal test run (the fuzzer only replays
// its seed corpus under plain `go test`).
func TestMapperFastPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range equivalenceMappers(t) {
		total := uint64(m.Geometry().TotalBytes())
		for _, pa := range []uint64{0, 63, 64, total - 1, total, total + 4096} {
			checkFastPathAt(t, m, pa)
		}
		for i := 0; i < 20_000; i++ {
			checkFastPathAt(t, m, rng.Uint64()%total)
		}
	}
}

// FuzzInternalRowRoundTrip checks the transform chain inverse for arbitrary
// rows, ranks and sides.
func FuzzInternalRowRoundTrip(f *testing.F) {
	g := geometry.Default()
	im := NewInternalMapper(g, AllTransforms())
	f.Add(0, 0, false)
	f.Add(131071, 1, true)
	f.Add(24, 1, true)
	f.Fuzz(func(t *testing.T, row, rank int, sideB bool) {
		if row < 0 || row >= g.RowsPerBank || rank < 0 || rank >= g.RanksPerDIMM {
			return
		}
		bank := geometry.BankID{Socket: 0, DIMM: 0, Rank: rank, Bank: 0}
		side := SideA
		if sideB {
			side = SideB
		}
		internal := im.InternalRow(bank, row, side)
		if got := im.MediaRow(bank, internal, side); got != row {
			t.Fatalf("inverse failed: %d -> %d -> %d", row, internal, got)
		}
		// Power-of-two subarray membership preserved (§6).
		if internal/g.RowsPerSubarray != row/g.RowsPerSubarray {
			t.Fatalf("row %d left its subarray (internal %d)", row, internal)
		}
	})
}

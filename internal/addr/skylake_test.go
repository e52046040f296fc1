package addr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geometry"
)

// tinyGeometry is small enough for exhaustive scans: 4 banks/socket, 16 MiB
// banks, 64 MiB/socket, 512-row subarrays (16 MiB subarray groups).
func tinyGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets:         2,
		CoresPerSocket:  4,
		DIMMsPerSocket:  1,
		RanksPerDIMM:    2,
		BanksPerRank:    2,
		RowsPerBank:     2048,
		RowBytes:        8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

func TestSkylakeRoundTripExhaustiveTiny(t *testing.T) {
	g := tinyGeometry()
	m, err := NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(g.TotalBytes())
	linesPerRow := g.RowBytes / geometry.CacheLineSize
	seen := make([]bool, total/geometry.CacheLineSize)
	covered := 0
	for pa := uint64(0); pa < total; pa += geometry.CacheLineSize {
		ma, err := m.Decode(pa)
		if err != nil {
			t.Fatalf("Decode(%#x): %v", pa, err)
		}
		if !ma.Valid(g) {
			t.Fatalf("Decode(%#x) = %v invalid", pa, ma)
		}
		idx := (ma.Bank.Flat(g)*g.RowsPerBank+ma.Row)*linesPerRow + ma.Col/geometry.CacheLineSize
		if seen[idx] {
			t.Fatalf("Decode collision at %v (pa=%#x)", ma, pa)
		}
		seen[idx] = true
		covered++
		back, err := m.Encode(ma)
		if err != nil {
			t.Fatalf("Encode(%v): %v", ma, err)
		}
		if back != pa {
			t.Fatalf("Encode(Decode(%#x)) = %#x", pa, back)
		}
	}
	if want := int(total / geometry.CacheLineSize); covered != want {
		t.Fatalf("covered %d media lines, want %d", covered, want)
	}
}

func TestSkylakeRoundTripPropertyDefault(t *testing.T) {
	g := geometry.Default()
	m, err := NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pa := uint64(r.Int63n(g.TotalBytes()))
		ma, err := m.Decode(pa)
		if err != nil || !ma.Valid(g) {
			return false
		}
		back, err := m.Encode(ma)
		return err == nil && back == pa
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSkylakeCacheLineBankInterleaving(t *testing.T) {
	// §2.4: sequential cache lines spread across all of a socket's banks.
	g := geometry.Default()
	m, err := NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	banks := g.BanksPerSocket()
	seen := make(map[int]bool)
	var prev geometry.MediaAddr
	for i := 0; i < banks; i++ {
		pa := uint64(i * geometry.CacheLineSize)
		ma, err := m.Decode(pa)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && ma.Bank == prev.Bank {
			t.Fatalf("lines %d and %d hit the same bank %v", i-1, i, ma.Bank)
		}
		seen[ma.Bank.Flat(g)] = true
		prev = ma
	}
	if len(seen) != banks {
		t.Fatalf("first %d lines touched %d banks, want all %d", banks, len(seen), banks)
	}
}

func TestSkylakeRowGroupsAscendWithChunks(t *testing.T) {
	// §4.2: ascending physical addresses populate ascending row groups
	// within a chunk; chunk k covers row groups [k*n, (k+1)*n).
	g := geometry.Default()
	m, err := NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	chunk := m.ChunkBytes()
	for c := int64(0); c < 4; c++ {
		base := uint64(c * chunk)
		first, err := m.Decode(base)
		if err != nil {
			t.Fatal(err)
		}
		last, err := m.Decode(base + uint64(chunk) - geometry.CacheLineSize)
		if err != nil {
			t.Fatal(err)
		}
		wantFirst := int(2 * c * RowGroupsPerChunk) // A-range chunks fill even media chunks
		if first.Row != wantFirst {
			t.Errorf("chunk %d starts at row group %d, want %d", c, first.Row, wantFirst)
		}
		if last.Row != wantFirst+RowGroupsPerChunk-1 {
			t.Errorf("chunk %d ends at row group %d, want %d", c, last.Row, wantFirst+RowGroupsPerChunk-1)
		}
	}
}

func TestSkylakeABAlternation(t *testing.T) {
	// The first chunk of range B (upper half of the socket's physical
	// space) populates media chunk 1, i.e. row groups [n, 2n).
	g := geometry.Default()
	m, err := NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	bStart := uint64(g.SocketBytes() / 2)
	ma, err := m.Decode(bStart)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Row != RowGroupsPerChunk {
		t.Errorf("range B starts at row group %d, want %d", ma.Row, RowGroupsPerChunk)
	}
}

func TestSkylakeMappingJump(t *testing.T) {
	// §4.2: at each region boundary the pattern repeats with new ranges —
	// physical range A continues into region r+1's media space, so the
	// media row group jumps by a full region rather than one chunk.
	g := geometry.Default()
	m, err := NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	half := uint64(m.regionBytes / 2)
	before, err := m.Decode(half - geometry.CacheLineSize)
	if err != nil {
		t.Fatal(err)
	}
	after, err := m.Decode(half)
	if err != nil {
		t.Fatal(err)
	}
	rowGroupsPerRegion := int(m.regionBytes / g.RowGroupBytes())
	// Last A-chunk of region 0 ends at row group rowGroupsPerRegion-n-? :
	// A fills even chunks, so its last row group is the end of media
	// chunk ChunksPerRegion-2.
	wantBefore := rowGroupsPerRegion - RowGroupsPerChunk - 1
	if before.Row != wantBefore {
		t.Errorf("last A byte of region 0 in row group %d, want %d", before.Row, wantBefore)
	}
	if after.Row != rowGroupsPerRegion {
		t.Errorf("first A byte of region 1 in row group %d, want %d", after.Row, rowGroupsPerRegion)
	}
}

// subarrayGroupOf returns the subarray group index of a media address.
func subarrayGroupOf(g geometry.Geometry, ma geometry.MediaAddr) int {
	return ma.Row / g.RowsPerSubarray
}

func TestSkylake2MiBPagesStayInOneSubarrayGroup(t *testing.T) {
	// §4.2: every 2 MiB page maps to a single subarray group, for all
	// three commodity subarray sizes.
	for _, rows := range []int{512, 1024, 2048} {
		g := geometry.Default().WithSubarraySize(rows)
		m, err := NewSkylakeMapper(g)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			page := uint64(rng.Int63n(g.TotalBytes()/geometry.PageSize2M)) * geometry.PageSize2M
			first, err := m.Decode(page)
			if err != nil {
				t.Fatal(err)
			}
			want := subarrayGroupOf(g, first)
			for off := uint64(0); off < geometry.PageSize2M; off += 64 * geometry.KiB {
				ma, err := m.Decode(page + off)
				if err != nil {
					t.Fatal(err)
				}
				if got := subarrayGroupOf(g, ma); got != want {
					t.Fatalf("rows=%d page %#x offset %#x in group %d, start in group %d",
						rows, page, off, got, want)
				}
			}
		}
	}
}

func TestSkylake1GiBPagesThirdInSingleSet(t *testing.T) {
	// §4.2: at least 1/3 of 1 GiB ranges map into a single 3 GiB set of
	// consecutive subarray groups; the rest straddle set boundaries.
	g := geometry.Default()
	m, err := NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	const setBytes = 3 * geometry.GiB
	nPages := g.SocketBytes() / geometry.PageSize1G
	inSingle := 0
	for p := int64(0); p < nPages; p++ {
		base := uint64(p * geometry.PageSize1G)
		lo, hi := int64(1)<<62, int64(-1)
		// Media offsets move in whole chunks; sampling chunk starts and
		// ends bounds the media span exactly.
		for off := int64(0); off < geometry.PageSize1G; off += m.ChunkBytes() {
			end := off + m.ChunkBytes()
			if end > geometry.PageSize1G {
				end = geometry.PageSize1G
			}
			for _, o := range []uint64{uint64(off), uint64(end) - geometry.CacheLineSize} {
				ma, err := m.Decode(base + o)
				if err != nil {
					t.Fatal(err)
				}
				mo := int64(ma.Row) * g.RowGroupBytes()
				if mo < lo {
					lo = mo
				}
				if mo > hi {
					hi = mo
				}
			}
		}
		if lo/setBytes == hi/setBytes {
			inSingle++
		}
	}
	frac := float64(inSingle) / float64(nPages)
	if frac < 1.0/3.0 {
		t.Fatalf("only %.2f of 1 GiB pages map to a single 3 GiB set, want >= 1/3", frac)
	}
	if frac > 0.99 {
		t.Fatalf("%.2f of 1 GiB pages map to single sets; the mapping jump should break some", frac)
	}
}

func TestSkylakeSocketSplit(t *testing.T) {
	g := geometry.Default()
	m, err := NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	ma0, err := m.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	if ma0.Bank.Socket != 0 {
		t.Errorf("pa 0 on socket %d", ma0.Bank.Socket)
	}
	ma1, err := m.Decode(uint64(g.SocketBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ma1.Bank.Socket != 1 {
		t.Errorf("pa at socket boundary on socket %d", ma1.Bank.Socket)
	}
}

func TestSkylakeOutOfRange(t *testing.T) {
	g := tinyGeometry()
	m, err := NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Decode(uint64(g.TotalBytes())); err == nil {
		t.Error("Decode accepted out-of-range pa")
	}
	if _, err := m.Encode(geometry.MediaAddr{Bank: geometry.BankID{Socket: 9}}); err == nil {
		t.Error("Encode accepted invalid media address")
	}
}

func TestLinearMapperRoundTrip(t *testing.T) {
	g := tinyGeometry()
	m, err := NewLinearMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pa := uint64(r.Int63n(g.TotalBytes()))
		ma, err := m.Decode(pa)
		if err != nil || !ma.Valid(g) {
			return false
		}
		back, err := m.Encode(ma)
		return err == nil && back == pa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearMapperNoInterleaving(t *testing.T) {
	// Sequential addresses stay in one bank for a whole bank's capacity.
	g := tinyGeometry()
	m, err := NewLinearMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	last, err := m.Decode(uint64(g.BankBytes()) - 1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Bank != last.Bank {
		t.Errorf("linear mapper spread one bank's range across banks %v and %v", first.Bank, last.Bank)
	}
	next, err := m.Decode(uint64(g.BankBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if next.Bank == first.Bank {
		t.Error("linear mapper did not advance banks after a bank's capacity")
	}
}

func TestPartitionedMapperRoundTrip(t *testing.T) {
	g := tinyGeometry()
	m, err := NewPartitionedMapper(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pa := uint64(r.Int63n(g.TotalBytes()))
		ma, err := m.Decode(pa)
		if err != nil || !ma.Valid(g) {
			return false
		}
		back, err := m.Encode(ma)
		return err == nil && back == pa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionedMapperDisjointBanks(t *testing.T) {
	// §8.4: pages from different partitions never share a bank.
	g := tinyGeometry()
	m, err := NewPartitionedMapper(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	half := uint64(g.SocketBytes() / 2)
	banks0 := map[int]bool{}
	banks1 := map[int]bool{}
	for off := uint64(0); off < 64*geometry.KiB; off += geometry.CacheLineSize {
		ma0, err := m.Decode(off)
		if err != nil {
			t.Fatal(err)
		}
		banks0[ma0.Bank.Flat(g)] = true
		ma1, err := m.Decode(half + off)
		if err != nil {
			t.Fatal(err)
		}
		banks1[ma1.Bank.Flat(g)] = true
	}
	for b := range banks0 {
		if banks1[b] {
			t.Fatalf("bank %d shared between partitions", b)
		}
	}
	if len(banks0) != g.BanksPerSocket()/2 || len(banks1) != g.BanksPerSocket()/2 {
		t.Errorf("partition bank counts: %d, %d", len(banks0), len(banks1))
	}
	if _, err := NewPartitionedMapper(g, 3); err == nil {
		t.Error("indivisible partition count accepted")
	}
}

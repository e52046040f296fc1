package dram

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
)

func testMemory(t *testing.T) *Memory {
	t.Helper()
	g := tinyGeometry()
	mapper, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMemory(g, mapper, []Profile{testProfile()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	mem := testMemory(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(4096)
		pa := uint64(rng.Int63n(mem.Geometry().TotalBytes() - int64(n)))
		data := make([]byte, n)
		rng.Read(data)
		if err := mem.WritePhys(pa, data); err != nil {
			t.Fatalf("WritePhys(%#x, %d): %v", pa, n, err)
		}
		got := make([]byte, n)
		if err := mem.ReadPhys(pa, got); err != nil {
			t.Fatalf("ReadPhys: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch at pa=%#x len=%d", pa, n)
		}
	}
}

func TestMemoryReadUnwrittenIsZero(t *testing.T) {
	mem := testMemory(t)
	buf := make([]byte, 256)
	if err := mem.ReadPhys(12345, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten memory not zeroed")
		}
	}
}

func TestMemoryWriteSpanningRows(t *testing.T) {
	// A write spanning multiple cache lines lands across banks; reading
	// each line back individually must reproduce it.
	mem := testMemory(t)
	data := make([]byte, 8*geometry.CacheLineSize)
	for i := range data {
		data[i] = byte(i)
	}
	pa := uint64(32) // deliberately misaligned
	if err := mem.WritePhys(pa, data); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 16 {
		got := make([]byte, 16)
		if err := mem.ReadPhys(pa+uint64(off), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[off:off+16]) {
			t.Fatalf("mismatch at offset %d", off)
		}
	}
}

func TestMemoryOutOfRange(t *testing.T) {
	mem := testMemory(t)
	end := uint64(mem.Geometry().TotalBytes())
	if err := mem.WritePhys(end-4, make([]byte, 8)); err == nil {
		t.Error("write crossing end of memory accepted")
	}
	if err := mem.ReadPhys(end, make([]byte, 1)); err == nil {
		t.Error("read past end accepted")
	}
	if err := mem.ActivatePhys(end, 1, 0); err == nil {
		t.Error("activate past end accepted")
	}
}

func TestActivatePhysCausesFlipsVisibleViaReadPhys(t *testing.T) {
	// End-to-end: hammer via a physical address; corruption appears at
	// the victim's physical address.
	mem := testMemory(t)
	g := mem.Geometry()

	// Pick a physical page and find its row, then hammer it.
	aggPA := uint64(24 * geometry.MiB)
	ma, err := mem.Mapper().Decode(aggPA)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the neighbourhood rows with 0xFF via their physical addresses.
	mod := mem.Module(ma.Bank.Socket, ma.Bank.DIMM)
	pattern := bytes.Repeat([]byte{0xFF}, g.RowBytes)
	for d := -2; d <= 2; d++ {
		if err := mod.WriteRow(ma.Bank, ma.Row+d, 0, pattern); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.ActivatePhys(aggPA, 5000, 0); err != nil {
		t.Fatal(err)
	}
	flips := mem.Flips()
	if len(flips) == 0 {
		t.Fatal("no flips from physical hammering")
	}
	for _, f := range flips {
		pa, err := mem.FlipPhys(f)
		if err != nil {
			t.Fatalf("FlipPhys(%v): %v", f, err)
		}
		var b [1]byte
		if err := mem.ReadPhys(pa, b[:]); err != nil {
			t.Fatal(err)
		}
		mask := byte(1) << (f.Bit % 8)
		if b[0]&mask != 0 {
			t.Errorf("flip %v not visible at pa %#x (byte=%#x)", f, pa, b[0])
		}
	}
}

func TestMemoryPerDIMMProfiles(t *testing.T) {
	g := geometry.Default()
	mapper, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMemory(g, mapper, EvaluationProfiles(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.Sockets; s++ {
		for d := 0; d < g.DIMMsPerSocket; d++ {
			want := EvaluationProfiles()[d%6].Name
			if got := mem.Module(s, d).prof.Name; got != want {
				t.Errorf("module (%d,%d) has profile %s, want %s", s, d, got, want)
			}
		}
	}
}

func TestMemoryRefreshAndFlipAggregation(t *testing.T) {
	mem := testMemory(t)
	if err := mem.ActivatePhys(0, 2000, 0); err != nil {
		t.Fatal(err)
	}
	if len(mem.Flips()) == 0 {
		t.Fatal("expected flips")
	}
	mem.ResetFlips()
	if len(mem.Flips()) != 0 {
		t.Fatal("ResetFlips did not clear")
	}
	mem.Refresh()
	if mem.Window() != 1 {
		t.Errorf("Window = %d after one refresh", mem.Window())
	}
}

func TestNewMemoryRejectsEmptyProfiles(t *testing.T) {
	g := tinyGeometry()
	mapper, _ := addr.NewSkylakeMapper(g)
	if _, err := NewMemory(g, mapper, nil, nil); err == nil {
		t.Error("empty profile list accepted")
	}
}

// TestMemoryMatchesShadowBufferProperty drives random writes and reads
// against a shadow byte map.
func TestMemoryMatchesShadowBufferProperty(t *testing.T) {
	mem := testMemory(t)
	total := uint64(mem.Geometry().TotalBytes())
	shadow := make(map[uint64]byte)
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 400; step++ {
		n := 1 + rng.Intn(512)
		pa := uint64(rng.Int63n(int64(total) - int64(n)))
		if rng.Intn(2) == 0 {
			data := make([]byte, n)
			rng.Read(data)
			if err := mem.WritePhys(pa, data); err != nil {
				t.Fatal(err)
			}
			for i, b := range data {
				shadow[pa+uint64(i)] = b
			}
		} else {
			buf := make([]byte, n)
			if err := mem.ReadPhys(pa, buf); err != nil {
				t.Fatal(err)
			}
			for i, b := range buf {
				if want := shadow[pa+uint64(i)]; b != want {
					t.Fatalf("step %d: byte at %#x = %#x, want %#x", step, pa+uint64(i), b, want)
				}
			}
		}
	}
}

func TestScrubPhysZeroesWithoutMaterializing(t *testing.T) {
	mem := testMemory(t)
	secret := []byte("tenant secret bytes")
	if err := mem.WritePhys(0x10000, secret); err != nil {
		t.Fatal(err)
	}
	if err := mem.ScrubPhys(0x10000, len(secret)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(secret))
	if err := mem.ReadPhys(0x10000, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x after scrub, want 0", i, b)
		}
	}
	// Scrubbing (and then reading) a never-written range is a no-op that
	// must not allocate row storage or fail.
	if err := mem.ScrubPhys(0x200000, 4096); err != nil {
		t.Fatal(err)
	}
	if err := mem.ReadPhys(0x200000, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("untouched byte %d = %#x, want 0", i, b)
		}
	}
}

// TestScrubPhysReleasesWholeStripes pins the release rule: a page-granular
// scrub under an interleaved mapping hands the rows it covered back to the
// row store (the per-line path zeroed them and kept them for ever, because
// no single line is a whole row), and a scrub of part of a stripe zeroes in
// place and releases nothing.
func TestScrubPhysReleasesWholeStripes(t *testing.T) {
	g := smallServer()
	mapper, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMemory(g, mapper, []Profile{testProfile()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	liveRows := func() (rows []int) {
		for s := 0; s < g.Sockets; s++ {
			for d := 0; d < g.DIMMsPerSocket; d++ {
				rows = append(rows, mem.Module(s, d).rows.live)
			}
		}
		return rows
	}
	// A resident neighbour, so "back to the start" is not "back to empty".
	if err := mem.WritePhys(0, []byte("neighbour")); err != nil {
		t.Fatal(err)
	}
	start := liveRows()

	const pa = 4 * geometry.PageSize2M
	page := bytes.Repeat([]byte{0xA5}, geometry.PageSize2M)
	if err := mem.WritePhys(pa, page); err != nil {
		t.Fatal(err)
	}
	written := liveRows()
	if want := geometry.PageSize2M / g.RowBytes / g.DIMMsPerSocket; written[0] != start[0]+want || written[1] != start[1]+want {
		t.Fatalf("a 2 MiB page materialized %v rows per module from %v, want +%d on each socket-0 DIMM", written, start, want)
	}

	// Half a stripe: zeroed where it was, nothing released.
	half := int(g.RowGroupBytes() / 2)
	if err := mem.ScrubPhys(pa, half); err != nil {
		t.Fatal(err)
	}
	if got := liveRows(); !slices.Equal(got, written) {
		t.Errorf("partial-stripe scrub changed materialized rows %v -> %v", written, got)
	}
	if err := mem.ReadPhys(pa, page); err != nil {
		t.Fatal(err)
	}
	if !AllZero(page[:half]) || bytes.Count(page[half:], []byte{0xA5}) != len(page)-half {
		t.Error("partial-stripe scrub did not zero exactly its range")
	}

	if err := mem.ScrubPhys(pa, geometry.PageSize2M); err != nil {
		t.Fatal(err)
	}
	if got := liveRows(); !slices.Equal(got, start) {
		t.Errorf("after scrubbing the page, materialized rows per module = %v, want the starting %v", got, start)
	}
	if err := mem.ReadPhys(pa, page); err != nil || !AllZero(page) {
		t.Errorf("scrubbed page does not read as zero (err %v)", err)
	}
	if err := mem.ReadPhys(0, page[:9]); err != nil || string(page[:9]) != "neighbour" {
		t.Errorf("neighbour row damaged by the scrub: %q, %v", page[:9], err)
	}
}

package alloc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/subarray"
)

func mkRange(start, size uint64) subarray.Range {
	return subarray.Range{Start: start, End: start + size}
}

func TestOrderHelpers(t *testing.T) {
	if OrderBytes(0) != 4096 {
		t.Errorf("OrderBytes(0) = %d", OrderBytes(0))
	}
	if OrderBytes(Order2M) != 2<<20 {
		t.Errorf("OrderBytes(Order2M) = %d", OrderBytes(Order2M))
	}
	if OrderBytes(MaxOrder) != 1<<30 {
		t.Errorf("OrderBytes(MaxOrder) = %d", OrderBytes(MaxOrder))
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a, err := New([]subarray.Range{mkRange(0, 16<<20)})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBytes() != 16<<20 {
		t.Fatalf("TotalBytes = %d", a.TotalBytes())
	}
	pa, err := a.Alloc(Order2M)
	if err != nil {
		t.Fatal(err)
	}
	if pa%OrderBytes(Order2M) != 0 {
		t.Errorf("2M block at %#x not aligned", pa)
	}
	if a.FreeBytes() != 14<<20 {
		t.Errorf("FreeBytes = %d", a.FreeBytes())
	}
	if err := a.Free(pa, Order2M); err != nil {
		t.Fatal(err)
	}
	if a.FreeBytes() != 16<<20 {
		t.Errorf("FreeBytes after free = %d", a.FreeBytes())
	}
}

func TestCoalescingRestoresMaximalBlocks(t *testing.T) {
	a, err := New([]subarray.Range{mkRange(0, 4<<20)})
	if err != nil {
		t.Fatal(err)
	}
	// Allocate everything as 4K pages, free them all; we should get the
	// original large blocks back.
	var pages []uint64
	for {
		pa, err := a.Alloc(0)
		if err != nil {
			break
		}
		pages = append(pages, pa)
	}
	if len(pages) != 1024 {
		t.Fatalf("allocated %d pages, want 1024", len(pages))
	}
	for _, pa := range pages {
		if err := a.Free(pa, 0); err != nil {
			t.Fatal(err)
		}
	}
	free := a.FreeBytesByOrder()
	for o := 0; o < 10; o++ {
		if free[o] != 0 {
			t.Errorf("order %d holds %d bytes after full free; coalescing failed", o, free[o])
		}
	}
	if free[10] != OrderBytes(10) { // 4 MiB = one order-10 block
		t.Errorf("order 10 holds %d bytes, want one block", free[10])
	}
}

func TestOfflineExcludesRanges(t *testing.T) {
	// 8 MiB with the middle 2 MiB offlined: the caller subtracts it.
	a, err := New(subarray.Subtract(
		[]subarray.Range{mkRange(0, 8<<20)},
		[]subarray.Range{mkRange(3<<20, 2<<20)},
	))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBytes() != 6<<20 {
		t.Fatalf("TotalBytes = %d, want 6 MiB", a.TotalBytes())
	}
	// No allocation may land in the offlined hole.
	for {
		pa, err := a.Alloc(0)
		if err != nil {
			break
		}
		if pa >= 3<<20 && pa < 5<<20 {
			t.Fatalf("allocated offlined page %#x", pa)
		}
	}
}

func TestAllocExhaustionAndErrors(t *testing.T) {
	a, err := New([]subarray.Range{mkRange(0, 2<<20)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(Order2M); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(0); err != ErrNoMemory {
		t.Errorf("expected ErrNoMemory, got %v", err)
	}
	if _, err := a.Alloc(-1); err == nil {
		t.Error("negative order accepted")
	}
	if _, err := a.Alloc(MaxOrder + 1); err == nil {
		t.Error("oversize order accepted")
	}
	if err := a.Free(4097, 0); err == nil {
		t.Error("misaligned free accepted")
	}
	if err := a.Free(0, 99); err == nil {
		t.Error("bad order free accepted")
	}
}

func TestAllocPagesRollsBackOnFailure(t *testing.T) {
	a, err := New([]subarray.Range{mkRange(0, 4<<20)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocPages(Order2M, 3); err == nil {
		t.Fatal("expected failure for 3x2M from 4M")
	}
	if a.FreeBytes() != 4<<20 {
		t.Errorf("rollback incomplete: free = %d", a.FreeBytes())
	}
	pages, err := a.AllocPages(Order2M, 2)
	if err != nil || len(pages) != 2 {
		t.Fatalf("AllocPages(2) = %v, %v", pages, err)
	}
}

func TestNonContiguousRanges(t *testing.T) {
	a, err := New([]subarray.Range{mkRange(0, 1<<20), mkRange(8<<20, 1<<20)})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBytes() != 2<<20 {
		t.Fatalf("TotalBytes = %d", a.TotalBytes())
	}
	seen := make(map[uint64]bool)
	for {
		pa, err := a.Alloc(0)
		if err != nil {
			break
		}
		if seen[pa] {
			t.Fatalf("double allocation of %#x", pa)
		}
		seen[pa] = true
		inA := pa < 1<<20
		inB := pa >= 8<<20 && pa < 9<<20
		if !inA && !inB {
			t.Fatalf("allocation %#x outside managed ranges", pa)
		}
	}
	if len(seen) != 512 {
		t.Errorf("allocated %d pages, want 512", len(seen))
	}
}

func TestUnalignedRangeRejected(t *testing.T) {
	if _, err := New([]subarray.Range{mkRange(100, 1<<20)}); err == nil {
		t.Error("unaligned range accepted")
	}
}

// TestNewRejectsMalformedRanges: New seeds its ranges as given, so it refuses
// what would seed a different allocator than the merged, sorted set.
func TestNewRejectsMalformedRanges(t *testing.T) {
	for name, ranges := range map[string][]subarray.Range{
		"unsorted":    {mkRange(8<<20, 2<<20), mkRange(0, 2<<20)},
		"overlapping": {mkRange(0, 4<<20), mkRange(2<<20, 4<<20)},
		"touching":    {mkRange(0, 2<<20), mkRange(2<<20, 2<<20)},
		"empty":       {mkRange(0, 2<<20), mkRange(4<<20, 0)},
		"inverted":    {{Start: 4 << 20, End: 2 << 20}},
	} {
		if _, err := New(ranges); err == nil {
			t.Errorf("%s ranges %v accepted", name, ranges)
		}
	}
	if _, err := New([]subarray.Range{mkRange(0, 2<<20), mkRange(2<<20+4096, 2<<20)}); err != nil {
		t.Errorf("sorted ranges a page apart refused: %v", err)
	}
}

// TestBuddyInvariantsProperty drives random alloc/free sequences and checks
// conservation, alignment, disjointness and containment.
func TestBuddyInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := New([]subarray.Range{mkRange(0, 8<<20), mkRange(32<<20, 4<<20)})
		if err != nil {
			return false
		}
		type block struct {
			pa    uint64
			order int
		}
		var live []block
		for step := 0; step < 300; step++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				order := rng.Intn(Order2M + 1)
				pa, err := a.Alloc(order)
				if err != nil {
					continue
				}
				if pa%OrderBytes(order) != 0 {
					return false
				}
				// Check disjointness with all live blocks.
				for _, b := range live {
					if pa < b.pa+OrderBytes(b.order) && b.pa < pa+OrderBytes(order) {
						return false
					}
				}
				live = append(live, block{pa, order})
			} else {
				i := rng.Intn(len(live))
				b := live[i]
				if err := a.Free(b.pa, b.order); err != nil {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			// Conservation invariant.
			var liveBytes uint64
			for _, b := range live {
				liveBytes += OrderBytes(b.order)
			}
			if a.UsedBytes() != liveBytes || a.FreeBytes()+a.UsedBytes() != a.TotalBytes() {
				return false
			}
		}
		// Free everything; allocator must return to pristine capacity.
		for _, b := range live {
			if err := a.Free(b.pa, b.order); err != nil {
				return false
			}
		}
		return a.FreeBytes() == a.TotalBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAllocationsAscend(t *testing.T) {
	// §5.4 deployment environment: guests get ascending contiguous
	// physical regions; the allocator hands out lowest addresses first.
	a, err := New([]subarray.Range{mkRange(0, 32<<20)})
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for i := 0; i < 16; i++ {
		pa, err := a.Alloc(Order2M)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && pa != prev+OrderBytes(Order2M) {
			t.Fatalf("allocation %d at %#x, want contiguous after %#x", i, pa, prev)
		}
		prev = pa
	}
}

func TestFragmentationIntrospection(t *testing.T) {
	// 16 MiB arena: largest free block is one order-12 (16 MiB) block.
	a, err := New([]subarray.Range{mkRange(0, 16<<20)})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.LargestFreeOrder(); got != 12 {
		t.Fatalf("LargestFreeOrder on fresh 16 MiB arena = %d, want 12", got)
	}
	hist := a.FreeBytesByOrder()
	if hist[12] != 16<<20 {
		t.Fatalf("FreeBytesByOrder[12] = %d, want 16 MiB", hist[12])
	}

	// Splitting a base page out of the arena leaves one free block at
	// every order below the top: the classic buddy split signature.
	pa, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.LargestFreeOrder(); got != 11 {
		t.Fatalf("LargestFreeOrder after split = %d, want 11", got)
	}
	var free uint64
	for o, b := range a.FreeBytesByOrder() {
		if want := OrderBytes(o); o <= 11 && b != want {
			t.Errorf("FreeBytesByOrder[%d] = %d, want one block (%d)", o, b, want)
		}
		free += b
	}
	if free != a.FreeBytes() {
		t.Errorf("histogram sums to %d, FreeBytes is %d", free, a.FreeBytes())
	}

	if err := a.Free(pa, 0); err != nil {
		t.Fatal(err)
	}
	if got := a.LargestFreeOrder(); got != 12 {
		t.Fatalf("LargestFreeOrder after coalesce = %d, want 12", got)
	}
}

func TestLargestFreeOrderExhausted(t *testing.T) {
	a, err := New([]subarray.Range{mkRange(0, 4096)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(0); err != nil {
		t.Fatal(err)
	}
	if got := a.LargestFreeOrder(); got != -1 {
		t.Fatalf("LargestFreeOrder on exhausted allocator = %d, want -1", got)
	}
}

// TestFreeRejectsDoubleFree replays a double free. Accepted, the second Free
// left FreeBytes at 6 MiB of a 4 MiB allocator, UsedBytes underflowed, and
// the next two 2 MiB allocations both returned 0x0. Now it is refused with
// ErrNotAllocated, as is a free of any block inside a free one, and the
// allocator is left exactly as it was; FreePages stops at the same block.
func TestFreeRejectsDoubleFree(t *testing.T) {
	a, err := New([]subarray.Range{mkRange(0, 4<<20)})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := a.Alloc(Order2M)
	if err != nil || pa != 0 {
		t.Fatalf("Alloc(Order2M) = %#x, %v; want 0x0", pa, err)
	}
	if err := a.Free(pa, Order2M); err != nil {
		t.Fatal(err)
	}
	unchanged := func(what string) {
		t.Helper()
		if a.FreeBytes() != 4<<20 || a.UsedBytes() != 0 || a.LargestFreeOrder() != Order2M+1 {
			t.Fatalf("%s: FreeBytes %d, UsedBytes %d, LargestFreeOrder %d; want 4 MiB, 0, %d",
				what, a.FreeBytes(), a.UsedBytes(), a.LargestFreeOrder(), Order2M+1)
		}
	}
	version := a.Version()
	for _, b := range []struct {
		pa    uint64
		order int
	}{
		{0, Order2M},       // the double free
		{2 << 20, Order2M}, // never allocated: the other half of the free 4 MiB block
		{0, Order2M + 1},   // the free block itself
		{0x3ff000, 0},      // a base page inside it
	} {
		if err := a.Free(b.pa, b.order); !errors.Is(err, ErrNotAllocated) {
			t.Errorf("Free(%#x, %d) on free memory = %v, want ErrNotAllocated", b.pa, b.order, err)
		}
		unchanged("after a refused free")
	}
	if a.Version() != version {
		t.Errorf("refused frees moved Version %d → %d", version, a.Version())
	}

	first, err1 := a.Alloc(Order2M)
	second, err2 := a.Alloc(Order2M)
	if err1 != nil || err2 != nil || first == second {
		t.Fatalf("two Alloc(Order2M) after the double free = %#x, %#x (%v, %v); want two frames", first, second, err1, err2)
	}
	err = a.FreePages(Order2M, []uint64{first, first, second})
	if !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("FreePages with a repeated page = %v, want ErrNotAllocated", err)
	}
	if a.UsedBytes() != 2<<20 || a.FreeBytes() != 2<<20 {
		t.Errorf("FreePages stopped at the repeat with UsedBytes %d, FreeBytes %d; want 2 MiB each", a.UsedBytes(), a.FreeBytes())
	}
}

// TestFreeProbeStopsAtAFreeBuddy: Free's double-free probe ends at the first
// order whose buddy is free. That neither refuses a valid free nor misses a
// double free inside a larger free block, and a refused free changes nothing.
func TestFreeProbeStopsAtAFreeBuddy(t *testing.T) {
	a, err := New([]subarray.Range{mkRange(0, 4<<20)})
	if err != nil {
		t.Fatal(err)
	}
	// Two base pages from the bottom of the 4 MiB block: the split leaves one
	// free buddy at every order from 1 (0x2000) to 9 (2 MiB).
	for _, want := range []uint64{0, 0x1000} {
		if pa, err := a.Alloc(0); err != nil || pa != want {
			t.Fatalf("Alloc(0) = %#x, %v; want %#x", pa, err, want)
		}
	}
	for _, s := range []struct {
		pa      uint64
		refused bool
		used    uint64 // UsedBytes after the step
	}{
		{0x1000, false, 0x1000},  // valid: buddy 0x0 is live, the order-1 buddy is free
		{0x1000, true, 0x1000},   // the double free: on the order-0 list itself
		{0x2000, true, 0x1000},   // inside the free order-1 block at 0x2000
		{0x3ff000, true, 0x1000}, // inside the free 2 MiB block, nine orders up
		{0, false, 0},            // valid: buddy 0x1000 is free; coalesces to 4 MiB
		{0x1ff000, true, 0},      // inside the whole free 4 MiB block
	} {
		version := a.Version()
		err := a.Free(s.pa, 0)
		if refused := errors.Is(err, ErrNotAllocated); refused != s.refused || (err != nil && !refused) {
			t.Fatalf("Free(%#x, 0) = %v, want refused %v", s.pa, err, s.refused)
		}
		if s.refused && a.Version() != version {
			t.Errorf("refused Free(%#x, 0) moved Version %d → %d", s.pa, version, a.Version())
		}
		if a.UsedBytes() != s.used || a.FreeBytes() != 4<<20-s.used {
			t.Fatalf("after Free(%#x, 0): UsedBytes %d, FreeBytes %d; want %d used", s.pa, a.UsedBytes(), a.FreeBytes(), s.used)
		}
	}
	if got := a.LargestFreeOrder(); got != Order2M+1 {
		t.Errorf("LargestFreeOrder = %d, want %d: the two frees coalesce to one 4 MiB block", got, Order2M+1)
	}
}

// TestFreePages: the balloon's bulk-release path returns a batch of huge
// pages and restores the exact free capacity.
func TestFreePages(t *testing.T) {
	a, err := New([]subarray.Range{mkRange(0, 64<<20)})
	if err != nil {
		t.Fatal(err)
	}
	before := a.FreeBytes()
	pages, perr := a.AllocPages(Order2M, 8)
	if perr != nil {
		t.Fatal(perr)
	}
	if err := a.FreePages(Order2M, pages); err != nil {
		t.Fatal(err)
	}
	if got := a.FreeBytes(); got != before {
		t.Errorf("FreeBytes after FreePages = %d, want %d", got, before)
	}
	if got := a.UsedBytes(); got != 0 {
		t.Errorf("UsedBytes after FreePages = %d, want 0", got)
	}
	if err := a.FreePages(Order2M, []uint64{12345}); err == nil {
		t.Error("misaligned batch free accepted")
	}
}

func TestAllocAtClaimsSpecificBlock(t *testing.T) {
	a, err := New([]subarray.Range{mkRange(0, 16<<20)})
	if err != nil {
		t.Fatal(err)
	}
	target := uint64(6 << 20) // mid-range 2M page inside a larger free block
	if err := a.AllocAt(target, Order2M); err != nil {
		t.Fatal(err)
	}
	if got := a.UsedBytes(); got != OrderBytes(Order2M) {
		t.Fatalf("used = %d, want one 2M page", got)
	}
	// Claiming the same block again must fail with ErrNoMemory.
	if err := a.AllocAt(target, Order2M); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("double AllocAt error = %v, want ErrNoMemory", err)
	}
	// The rest of the range is still allocatable: draining everything
	// else must succeed and never hand out the claimed page.
	seen := map[uint64]bool{}
	for {
		pa, err := a.Alloc(Order2M)
		if err != nil {
			break
		}
		if pa == target {
			t.Fatalf("Alloc handed out the claimed page %#x", pa)
		}
		if seen[pa] {
			t.Fatalf("Alloc handed out %#x twice", pa)
		}
		seen[pa] = true
	}
	if len(seen) != (16<<20)/(2<<20)-1 {
		t.Fatalf("drained %d pages, want %d", len(seen), (16<<20)/(2<<20)-1)
	}
	// Freeing the claimed page restores full coalescing.
	for pa := range seen {
		if err := a.Free(pa, Order2M); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Free(target, Order2M); err != nil {
		t.Fatal(err)
	}
	if a.LargestFreeOrder() < Order2M+3 {
		t.Fatalf("coalescing after AllocAt broke: largest order %d", a.LargestFreeOrder())
	}
}

func TestAllocAtRejectsInvalid(t *testing.T) {
	a, err := New(subarray.Subtract([]subarray.Range{mkRange(0, 4<<20)}, []subarray.Range{mkRange(1<<20, 1<<20)}))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AllocAt(1<<20, Order2M); err == nil {
		t.Fatal("unaligned AllocAt accepted")
	}
	// Offlined memory is not free: the claim must wrap ErrNoMemory.
	if err := a.AllocAt(1<<20, 8); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("offline AllocAt error = %v, want ErrNoMemory", err)
	}
	// Outside the managed ranges entirely.
	if err := a.AllocAt(1<<30, Order2M); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("out-of-range AllocAt error = %v, want ErrNoMemory", err)
	}
	if err := a.AllocAt(0, -1); err == nil {
		t.Fatal("negative order accepted")
	}
}

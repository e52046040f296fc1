package alloc

import (
	"testing"

	"repro/internal/subarray"
)

func BenchmarkAllocFree2M(b *testing.B) {
	a, err := New([]subarray.Range{{Start: 0, End: 1 << 30}}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa, err := a.Alloc(Order2M)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(pa, Order2M); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocChurn4K(b *testing.B) {
	a, err := New([]subarray.Range{{Start: 0, End: 256 << 20}}, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Steady state: keep a bounded live set, alternating alloc and free.
	const maxLive = 4096
	var live []uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(live) >= maxLive || (i%3 == 2 && len(live) > 0) {
			pa := live[len(live)-1]
			live = live[:len(live)-1]
			if err := a.Free(pa, 0); err != nil {
				b.Fatal(err)
			}
			continue
		}
		pa, err := a.Alloc(0)
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, pa)
	}
}

// BenchmarkAllocFragmented4K is the sorted free list's worst case on record:
// every other 4 KiB page of 32 MiB is allocated, so the order-0 list holds
// 4096 blocks that cannot coalesce, and each op takes and returns a block in
// the middle of it — a binary search and a tail move of ~2048 entries each
// way.
func BenchmarkAllocFragmented4K(b *testing.B) {
	const pages = 8192
	a, err := New([]subarray.Range{{Start: 0, End: pages * 4096}}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if _, err := a.Alloc(0); err != nil {
			b.Fatal(err)
		}
	}
	for pa := uint64(0); pa < pages*4096; pa += 2 * 4096 {
		if err := a.Free(pa, 0); err != nil {
			b.Fatal(err)
		}
	}
	if n := a.FreePagesAtOrder(0); n != pages/2 {
		b.Fatalf("%d free pages, want %d", n, pages/2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := uint64(pages/2+2*(i%64)) * 4096
		if err := a.AllocAt(pa, 0); err != nil {
			b.Fatal(err)
		}
		if err := a.Free(pa, 0); err != nil {
			b.Fatal(err)
		}
	}
}

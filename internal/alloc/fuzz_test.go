package alloc

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/subarray"
)

// FuzzBuddySequences drives seeded random alloc/free sequences and checks
// the allocator's conservation and disjointness invariants. A third of the
// steps are misuse: a free of a block the sequence freed before (a double
// free) or of a random aligned block it never allocated. Whenever no live
// block overlaps it, the block lies inside free memory, so Free must refuse
// it with ErrNotAllocated and leave FreeBytes and UsedBytes as they were.
func FuzzBuddySequences(f *testing.F) {
	f.Add(int64(1), uint8(8))
	f.Add(int64(42), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, maxOrder uint8) {
		const managed = 16 << 20
		order := int(maxOrder) % (Order2M + 1)
		rng := rand.New(rand.NewSource(seed))
		a, err := New([]subarray.Range{{Start: 0, End: managed}})
		if err != nil {
			t.Fatal(err)
		}
		type blk struct {
			pa uint64
			o  int
		}
		overlapsLive := func(live []blk, pa uint64, o int) bool {
			for _, b := range live {
				if pa < b.pa+OrderBytes(b.o) && b.pa < pa+OrderBytes(o) {
					return true
				}
			}
			return false
		}
		var live, freed []blk
		for i := 0; i < 200; i++ {
			switch op := rng.Intn(6); {
			case op >= 4: // misuse
				b := blk{o: rng.Intn(order + 1)}
				b.pa = uint64(rng.Int63n(managed)) &^ (OrderBytes(b.o) - 1)
				if len(freed) > 0 && op == 4 {
					b = freed[rng.Intn(len(freed))]
				}
				if overlapsLive(live, b.pa, b.o) {
					continue
				}
				freeBytes, usedBytes := a.FreeBytes(), a.UsedBytes()
				if err := a.Free(b.pa, b.o); !errors.Is(err, ErrNotAllocated) {
					t.Fatalf("Free(%#x, %d) of free memory = %v, want ErrNotAllocated", b.pa, b.o, err)
				}
				if a.FreeBytes() != freeBytes || a.UsedBytes() != usedBytes {
					t.Fatalf("refused Free(%#x, %d) moved FreeBytes/UsedBytes %d/%d → %d/%d",
						b.pa, b.o, freeBytes, usedBytes, a.FreeBytes(), a.UsedBytes())
				}
			case op < 2 || len(live) == 0:
				o := rng.Intn(order + 1)
				pa, err := a.Alloc(o)
				if err != nil {
					continue
				}
				if pa%OrderBytes(o) != 0 {
					t.Fatalf("misaligned block %#x order %d", pa, o)
				}
				if overlapsLive(live, pa, o) {
					t.Fatalf("overlap: %#x/%d with a live block", pa, o)
				}
				live = append(live, blk{pa, o})
			default:
				j := rng.Intn(len(live))
				if err := a.Free(live[j].pa, live[j].o); err != nil {
					t.Fatal(err)
				}
				freed = append(freed, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if a.FreeBytes()+a.UsedBytes() != a.TotalBytes() {
				t.Fatal("conservation violated")
			}
		}
	})
}

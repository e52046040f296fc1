// Package alloc implements a per-node physical page allocator: a binary
// buddy system over the physical address ranges a logical NUMA node owns,
// supporting 4 KiB base pages through 1 GiB blocks, boot-time page
// offlining (guard rows, repaired rows, §5.4/§6).
package alloc

import (
	"fmt"
	"sync"

	"repro/internal/subarray"
)

const (
	// BasePageShift is log2 of the base page size (4 KiB).
	BasePageShift = 12
	// MaxOrder is the largest block order (order 18 = 1 GiB).
	MaxOrder = 18
	// Order2M is the order of a 2 MiB huge page.
	Order2M = 9
)

// OrderBytes returns the size of an order-o block.
func OrderBytes(o int) uint64 { return 1 << (BasePageShift + o) }

// ErrNoMemory is returned when the allocator cannot satisfy a request.
var ErrNoMemory = fmt.Errorf("alloc: out of memory")

// ErrNotAllocated is wrapped by Free's error for a block that is already
// free, at its own order or inside a larger free block. Accepting it would
// put the block on a free list twice and hand one frame to two owners.
var ErrNotAllocated = fmt.Errorf("alloc: block not allocated")

// freeList is one order's free blocks, sorted by descending address so the
// lowest block pops off the end. Lowest-address-first allocation gives VMs
// ascending, physically-contiguous regions — matching the static contiguous
// guest allocation of the paper's deployment environment (§5.4). push and
// remove binary-search the list and move its tail once: O(n) in the worst
// case, but no list on the measured workloads holds more than a few hundred
// blocks (DESIGN.md, "Hot paths and benchmarking").
type freeList struct {
	blocks []uint64
}

// find returns the index of the first block at or below pa: where pa is, or
// where it would be inserted.
func (f *freeList) find(pa uint64) int {
	lo, hi := 0, len(f.blocks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if f.blocks[m] > pa {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// push adds pa, which must not be on the list.
func (f *freeList) push(pa uint64) {
	i := f.find(pa)
	f.blocks = append(f.blocks, 0)
	copy(f.blocks[i+1:], f.blocks[i:])
	f.blocks[i] = pa
}

// lowest returns the lowest-address block without removing it.
func (f *freeList) lowest() (uint64, bool) {
	if len(f.blocks) == 0 {
		return 0, false
	}
	return f.blocks[len(f.blocks)-1], true
}

// pop removes and returns the lowest-address block.
func (f *freeList) pop() (uint64, bool) {
	pa, ok := f.lowest()
	if ok {
		f.blocks = f.blocks[:len(f.blocks)-1]
	}
	return pa, ok
}

func (f *freeList) remove(pa uint64) bool {
	i := f.find(pa)
	if i == len(f.blocks) || f.blocks[i] != pa {
		return false
	}
	f.blocks = append(f.blocks[:i], f.blocks[i+1:]...)
	return true
}

func (f *freeList) len() int { return len(f.blocks) }

func (f *freeList) has(pa uint64) bool {
	i := f.find(pa)
	return i < len(f.blocks) && f.blocks[i] == pa
}

// Allocator is a buddy allocator over a set of physical ranges. All methods
// are safe for concurrent use: node allocators are shared — host nodes serve
// every VM's mediated pages and the EPT node serves every table hierarchy on
// its socket — so parallel VM lifecycle operations contend on them.
type Allocator struct {
	mu      sync.Mutex
	free    [MaxOrder + 1]freeList
	total   uint64 // managed bytes (after offlining)
	used    uint64
	version uint64 // bumped on every state change
}

// Version returns a counter incremented by every allocation and free; node
// statistics readers use it to skip nodes whose state cannot have changed
// (§5.3).
func (a *Allocator) Version() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.version
}

// New builds an allocator over ranges, excluding any overlap with offline
// (offlined pages are never allocatable, §5.4). Ranges must be base-page
// aligned.
func New(ranges, offline []subarray.Range) (*Allocator, error) {
	a := &Allocator{}
	usable := subarray.Subtract(ranges, offline)
	for _, r := range usable {
		if r.Start%OrderBytes(0) != 0 || r.End%OrderBytes(0) != 0 {
			return nil, fmt.Errorf("alloc: range %v not page aligned", r)
		}
		a.seed(r)
	}
	return a, nil
}

// seed covers a range greedily with maximal naturally-aligned blocks.
func (a *Allocator) seed(r subarray.Range) {
	pa := r.Start
	for pa < r.End {
		o := MaxOrder
		for o > 0 && (pa%OrderBytes(o) != 0 || pa+OrderBytes(o) > r.End) {
			o--
		}
		a.free[o].push(pa)
		a.total += OrderBytes(o)
		pa += OrderBytes(o)
	}
}

// Alloc returns a naturally-aligned free block of the given order. Among
// all free blocks large enough, the lowest-addressed one is split, so
// sequences of allocations walk the address space in ascending order.
func (a *Allocator) Alloc(order int) (uint64, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("alloc: invalid order %d", order)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	o := -1
	var best uint64
	for cand := order; cand <= MaxOrder; cand++ {
		if head, ok := a.free[cand].lowest(); ok && (o == -1 || head < best) {
			o, best = cand, head
		}
	}
	if o == -1 {
		return 0, ErrNoMemory
	}
	pa, _ := a.free[o].pop()
	// Split down to the requested order, freeing upper halves.
	for o > order {
		o--
		a.free[o].push(pa + OrderBytes(o))
	}
	a.used += OrderBytes(order)
	a.version++
	return pa, nil
}

// AllocAt claims the specific order-sized block at pa, which must be
// naturally aligned. The containing free block (of this order or larger)
// is split down keeping the half that covers pa, exactly inverting Free's
// coalescing. It wraps ErrNoMemory when pa is offline, already allocated,
// or outside the managed ranges — callers placing guard bands around
// tenant extents (CATT) treat that as "this side already guarded".
func (a *Allocator) AllocAt(pa uint64, order int) error {
	if order < 0 || order > MaxOrder {
		return fmt.Errorf("alloc: invalid order %d", order)
	}
	if pa%OrderBytes(order) != 0 {
		return fmt.Errorf("alloc: pa %#x not aligned to order %d", pa, order)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for o := order; o <= MaxOrder; o++ {
		block := pa &^ (OrderBytes(o) - 1)
		if !a.free[o].remove(block) {
			continue
		}
		// Split down to the requested order, keeping the half that
		// contains pa and freeing the other.
		for o > order {
			o--
			half := block + OrderBytes(o)
			if pa >= half {
				a.free[o].push(block)
				block = half
			} else {
				a.free[o].push(half)
			}
		}
		a.used += OrderBytes(order)
		a.version++
		return nil
	}
	return fmt.Errorf("alloc: block %#x order %d not free: %w", pa, order, ErrNoMemory)
}

// Free returns a block to the allocator, coalescing with free buddies. A
// block that is already free is refused with an error wrapping
// ErrNotAllocated and the allocator is left as it was: the block, or the
// free block containing it, is on the free list of one order from order up.
// The probe for such a block stops at the first order whose buddy is free:
// free blocks are disjoint, and every larger block containing this one also
// contains that buddy.
func (a *Allocator) Free(pa uint64, order int) error {
	if order < 0 || order > MaxOrder {
		return fmt.Errorf("alloc: invalid order %d", order)
	}
	if pa%OrderBytes(order) != 0 {
		return fmt.Errorf("alloc: pa %#x not aligned to order %d", pa, order)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for o := order; o <= MaxOrder; o++ {
		block := pa &^ (OrderBytes(o) - 1)
		if a.free[o].has(block) {
			return fmt.Errorf("alloc: free of block %#x order %d: %w", pa, order, ErrNotAllocated)
		}
		if o < MaxOrder && a.free[o].has(block^OrderBytes(o)) {
			break
		}
	}
	a.used -= OrderBytes(order)
	a.version++
	for order < MaxOrder {
		buddy := pa ^ OrderBytes(order)
		if !a.free[order].remove(buddy) {
			break
		}
		if buddy < pa {
			pa = buddy
		}
		order++
	}
	a.free[order].push(pa)
	return nil
}

// FreePages returns a batch of same-order pages to the allocator — the
// balloon deflation path's bulk release. It stops at the first failure,
// returning an error naming how many pages were freed before it.
func (a *Allocator) FreePages(order int, pages []uint64) error {
	for i, pa := range pages {
		if err := a.Free(pa, order); err != nil {
			return fmt.Errorf("alloc: freed %d/%d pages: %w", i, len(pages), err)
		}
	}
	return nil
}

// TotalBytes returns the managed capacity.
func (a *Allocator) TotalBytes() uint64 { return a.total }

// FreeBytes returns the currently-unallocated capacity.
func (a *Allocator) FreeBytes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total - a.used
}

// UsedBytes returns the currently-allocated capacity.
func (a *Allocator) UsedBytes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// FreePagesAtOrder returns how many pages of the given order the allocator
// can currently produce — free capacity that exists as blocks of at least
// that order. Boot-time offlining punches sub-huge-page holes into node
// memory, so huge-page capacity can be well below FreeBytes.
func (a *Allocator) FreePagesAtOrder(order int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	for o := order; o <= MaxOrder; o++ {
		total += a.free[o].len() << (o - order)
	}
	return total
}

// FreeBytesByOrder returns the free capacity held at each block order. The
// distribution is the fragmentation signature: the same FreeBytes spread
// across low orders cannot back huge pages.
func (a *Allocator) FreeBytesByOrder() [MaxOrder + 1]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out [MaxOrder + 1]uint64
	for o := range a.free {
		out[o] = uint64(a.free[o].len()) * OrderBytes(o)
	}
	return out
}

// LargestFreeOrder returns the order of the largest currently-free block,
// or -1 when the allocator is exhausted. It is the cheapest admission
// probe: a request of order k is satisfiable iff LargestFreeOrder() >= k.
func (a *Allocator) LargestFreeOrder() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	for o := MaxOrder; o >= 0; o-- {
		if a.free[o].len() > 0 {
			return o
		}
	}
	return -1
}

// AllocPages allocates n contiguous-or-not pages of the given order,
// returning their addresses; on failure everything allocated so far is
// released.
func (a *Allocator) AllocPages(order, n int) ([]uint64, error) {
	pages := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		pa, err := a.Alloc(order)
		if err != nil {
			for _, p := range pages {
				_ = a.Free(p, order)
			}
			return nil, fmt.Errorf("alloc: page %d/%d: %w", i, n, err)
		}
		pages = append(pages, pa)
	}
	return pages, nil
}

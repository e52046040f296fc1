package alloc

import "testing"

// heapFreeList is the free list the sorted slice replaced, kept as the
// reference: an address-ordered min-heap with an index map for O(log n)
// removal.
type heapFreeList struct {
	blocks []uint64
	index  map[uint64]int
}

func newHeapFreeList() *heapFreeList {
	return &heapFreeList{index: make(map[uint64]int)}
}

func (f *heapFreeList) swap(i, j int) {
	f.blocks[i], f.blocks[j] = f.blocks[j], f.blocks[i]
	f.index[f.blocks[i]] = i
	f.index[f.blocks[j]] = j
}

func (f *heapFreeList) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if f.blocks[parent] <= f.blocks[i] {
			break
		}
		f.swap(i, parent)
		i = parent
	}
}

func (f *heapFreeList) down(i int) {
	n := len(f.blocks)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && f.blocks[l] < f.blocks[min] {
			min = l
		}
		if r < n && f.blocks[r] < f.blocks[min] {
			min = r
		}
		if min == i {
			return
		}
		f.swap(i, min)
		i = min
	}
}

func (f *heapFreeList) push(pa uint64) {
	f.index[pa] = len(f.blocks)
	f.blocks = append(f.blocks, pa)
	f.up(len(f.blocks) - 1)
}

func (f *heapFreeList) pop() (uint64, bool) {
	if len(f.blocks) == 0 {
		return 0, false
	}
	pa := f.blocks[0]
	f.removeAt(0)
	return pa, true
}

func (f *heapFreeList) remove(pa uint64) bool {
	i, ok := f.index[pa]
	if !ok {
		return false
	}
	f.removeAt(i)
	return true
}

func (f *heapFreeList) removeAt(i int) {
	last := len(f.blocks) - 1
	pa := f.blocks[i]
	f.swap(i, last)
	f.blocks = f.blocks[:last]
	delete(f.index, pa)
	if i < last {
		f.down(i)
		f.up(i)
	}
}

func (f *heapFreeList) len() int { return len(f.blocks) }

func (f *heapFreeList) has(pa uint64) bool {
	_, ok := f.index[pa]
	return ok
}

// FuzzFreeListMatchesHeap drives push/pop/remove/has/lowest/len sequences on
// the sorted free list and on the heap it replaced, and demands the same
// answer from both at every step. Each step is two bytes: the operation and a block
// address drawn from 256 order-0 blocks, so removes and probes hit often. A
// push of a block already on the list is skipped: the allocator never makes
// one (Free refuses a block that is already free).
func FuzzFreeListMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 5, 0, 3, 0, 9, 1, 0, 2, 9, 3, 3, 4, 0})
	f.Add([]byte{0, 255, 0, 0, 0, 128, 2, 128, 2, 128, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 3, 2, 2, 2, 3, 2, 0, 2, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var got freeList
		want := newHeapFreeList()
		for i := 0; i+1 < len(ops); i += 2 {
			pa := uint64(ops[i+1]) * OrderBytes(0)
			switch ops[i] % 5 {
			case 0:
				if !want.has(pa) {
					got.push(pa)
					want.push(pa)
				}
			case 1:
				g, gok := got.pop()
				w, wok := want.pop()
				if g != w || gok != wok {
					t.Fatalf("step %d: pop = %#x, %v; heap pops %#x, %v", i/2, g, gok, w, wok)
				}
			case 2:
				if g, w := got.remove(pa), want.remove(pa); g != w {
					t.Fatalf("step %d: remove(%#x) = %v; heap says %v", i/2, pa, g, w)
				}
			case 3:
				if g, w := got.has(pa), want.has(pa); g != w {
					t.Fatalf("step %d: has(%#x) = %v; heap says %v", i/2, pa, g, w)
				}
			case 4:
				g, gok := got.lowest()
				var w uint64
				wok := want.len() > 0
				if wok {
					w = want.blocks[0]
				}
				if g != w || gok != wok {
					t.Fatalf("step %d: lowest = %#x, %v; heap's is %#x, %v", i/2, g, gok, w, wok)
				}
			}
			if g, w := got.len(), want.len(); g != w {
				t.Fatalf("step %d: len = %d; heap holds %d", i/2, g, w)
			}
		}
	})
}

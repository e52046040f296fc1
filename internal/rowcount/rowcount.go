// Package rowcount provides the per-bank row-accumulator table the
// memory controller counts activations in: an open-addressed hash table from
// a DRAM row index to an integer accumulator, laid out as one flat array of
// packed {key, tag, value} slots and reset in O(1) by bumping a generation
// counter.
//
// The design mirrors how cycle-accurate simulators lay out their Rowhammer
// counter tables (one flat table per rank*banks+bank instead of a
// map keyed by (bank, row)): per-bank tables are embedded in flat slices
// indexed by the dense bank index, and a refresh window ends by invalidating
// every entry at once — no per-window reallocation, no rehashing, no
// garbage. Tables are not safe for concurrent use; the simulation shards by
// bank, and each bank's table is touched by exactly one goroutine.
//
// The API is point operations only (Add, Get, Delete, Len, Reset): slot
// order is never observable, so callers cannot come to depend on it.
package rowcount

import "math/bits"

// Value is the accumulator payload a Table can carry: int32 covers
// activation counts (bounded by per-window activation budgets).
type Value interface {
	~int32
}

// minCapacity is the initial slot count of a table's first allocation.
// Workload streams touch a handful of rows per bank per refresh window;
// hammering campaigns grow the table on demand.
const minCapacity = 64

// maxGen is the largest generation before tags wrap; on wrap the slots are
// cleared so stale entries from 2^31 windows ago cannot resurrect.
const maxGen = 1<<31 - 1

// slot is one table entry. Key, state tag and accumulator sit side by side
// (12 bytes) so a probe step costs one host cache line, not one per parallel
// array — with 32 banks × 2 048 rows of tracker state the tables outgrow L2
// and that miss is the cost of an Add.
type slot[V Value] struct {
	key  int32
	meta uint32
	val  V
}

// Table accumulates values per row with O(1) whole-table reset.
//
// Slot states are encoded in meta: a slot is live when meta == gen<<1|1,
// a tombstone (deleted this generation) when meta == gen<<1, and free
// otherwise — so Reset invalidates every slot by incrementing gen. The
// zero Table is empty and ready to use; it allocates on first Add.
type Table[V Value] struct {
	slots []slot[V]
	mask  uint32
	live  int // entries visible to Get
	used  int // live + tombstones: bounds probe length, triggers growth
	gen   uint32
}

// hash spreads a row index over the table's slots.
func hash(row int32) uint32 {
	h := uint32(row) * 2654435769 // Fibonacci hashing
	return h ^ h>>16
}

// Reset empties the table in O(1). Capacity is retained, so a table reused
// across refresh windows settles at its high-water size and stops
// allocating.
func (t *Table[V]) Reset() {
	if t.gen >= maxGen {
		clear(t.slots)
		t.gen = 0
	}
	t.gen++
	t.live = 0
	t.used = 0
}

// Len returns the number of live rows.
func (t *Table[V]) Len() int { return t.live }

// Add accumulates delta into row's entry, creating it at delta if absent,
// and returns the new value.
func (t *Table[V]) Add(row int, delta V) V {
	if t.slots == nil {
		t.init(minCapacity)
	} else if (t.used+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	liveTag := t.gen<<1 | 1
	tombTag := t.gen << 1
	i := hash(int32(row)) & t.mask
	firstTomb := int32(-1)
	for {
		switch s := &t.slots[i]; {
		case s.meta == liveTag && s.key == int32(row):
			s.val += delta
			return s.val
		case s.meta == tombTag:
			if firstTomb < 0 {
				firstTomb = int32(i)
			}
		case s.meta != liveTag: // free slot: row is absent
			if firstTomb >= 0 {
				s = &t.slots[firstTomb] // reuse the tombstone; used unchanged
			} else {
				t.used++
			}
			*s = slot[V]{key: int32(row), meta: liveTag, val: delta}
			t.live++
			return delta
		}
		i = (i + 1) & t.mask
	}
}

// Get returns row's value and whether it is present.
func (t *Table[V]) Get(row int) (V, bool) {
	if t.live == 0 {
		var zero V
		return zero, false
	}
	liveTag := t.gen<<1 | 1
	tombTag := t.gen << 1
	i := hash(int32(row)) & t.mask
	for {
		switch s := &t.slots[i]; {
		case s.meta == liveTag && s.key == int32(row):
			return s.val, true
		case s.meta != liveTag && s.meta != tombTag: // free slot ends the probe
			var zero V
			return zero, false
		}
		i = (i + 1) & t.mask
	}
}

// Delete removes row's entry if present.
func (t *Table[V]) Delete(row int) {
	if t.live == 0 {
		return
	}
	liveTag := t.gen<<1 | 1
	tombTag := t.gen << 1
	i := hash(int32(row)) & t.mask
	for {
		switch s := &t.slots[i]; {
		case s.meta == liveTag && s.key == int32(row):
			s.meta = tombTag
			t.live--
			return
		case s.meta != liveTag && s.meta != tombTag:
			return
		}
		i = (i + 1) & t.mask
	}
}

// init allocates the slot array at a power-of-two capacity.
func (t *Table[V]) init(capacity int) {
	capacity = 1 << bits.Len(uint(capacity-1))
	t.slots = make([]slot[V], capacity)
	t.mask = uint32(capacity - 1)
	if t.gen == 0 {
		t.gen = 1 // zeroed meta must read as free
	}
}

// grow rehashes live entries into a table twice the size, shedding
// tombstones.
func (t *Table[V]) grow() {
	old := t.slots
	newCap := len(old) * 2
	if t.live*4 <= len(old) {
		newCap = len(old) // tombstone-dominated: rehash in place
	}
	liveTag := t.gen<<1 | 1
	t.init(newCap)
	t.live = 0
	t.used = 0
	for i := range old {
		if old[i].meta != liveTag {
			continue
		}
		j := hash(old[i].key) & t.mask
		for t.slots[j].meta == liveTag {
			j = (j + 1) & t.mask
		}
		t.slots[j] = old[i]
		t.live++
		t.used++
	}
}

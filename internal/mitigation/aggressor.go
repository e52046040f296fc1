package mitigation

import "fmt"

// aggressorTable is the bounded per-bank aggressor table under Silver
// Bullet and TRR: for every bank of a scope, at most size (row, count)
// entries, stored densely in two flat arrays of banks × size with a
// per-bank fill count. Bank b owns rows[b*size : b*size+n[b]] and the
// matching counts; entries are unordered.
//
// Every operation is O(size) worst case and touches only the bank's own
// adjacent entries — the tables the analyses budget are 4–16 entries (three
// host cache lines at 16), so a linear pass beats any hashed layout and
// there is deliberately no second path for larger sizes. Everything is
// allocated once in the constructor; resetting a bank is n[b] = 0.
//
// Entries are addressed by absolute index into rows/counts, as returned by
// find, lowest and insert. remove moves the bank's last entry into the
// freed index, so any other index held across a remove is stale.
type aggressorTable struct {
	size   int
	rows   []int32
	counts []float64
	n      []int
}

// newAggressorTable allocates the table for a scope of banks. A dense
// table has no capacity-0 meaning (a full empty table would have to evict
// an entry that does not exist), so size < 1 is a constructor bug.
func newAggressorTable(banks, size int) aggressorTable {
	if size < 1 {
		panic(fmt.Sprintf("mitigation: aggressor table size must be >= 1, got %d", size))
	}
	return aggressorTable{
		size:   size,
		rows:   make([]int32, banks*size),
		counts: make([]float64, banks*size),
		n:      make([]int, banks),
	}
}

// find returns the index of row's entry in bank, or -1. It reads only the
// bank's rows — one host cache line at size 16 — so a tracked row costs no
// look at the counters.
func (t *aggressorTable) find(bank, row int) int {
	base := bank * t.size
	for i, r := range t.rows[base : base+t.n[bank]] {
		if r == int32(row) {
			return base + i
		}
	}
	return -1
}

// lowest returns the index of bank's eviction candidate: the entry lowest
// in the (count, row) total order. The order is total, so the choice does
// not depend on entry order. The bank must not be empty.
func (t *aggressorTable) lowest(bank int) int {
	base := bank * t.size
	rows := t.rows[base : base+t.n[bank]]
	counts := t.counts[base : base+len(rows)]
	low, lowRow, lowC := 0, rows[0], counts[0]
	for i := 1; i < len(rows); i++ {
		if r, c := rows[i], counts[i]; c < lowC || (c == lowC && r < lowRow) {
			low, lowRow, lowC = i, r, c
		}
	}
	return base + low
}

// full reports whether bank holds size entries.
func (t *aggressorTable) full(bank int) bool { return t.n[bank] == t.size }

// insert appends row to bank at count c and returns its index. The bank
// must not be full.
func (t *aggressorTable) insert(bank, row int, c float64) int {
	i := bank*t.size + t.n[bank]
	t.rows[i], t.counts[i] = int32(row), c
	t.n[bank]++
	return i
}

// replace overwrites the entry at index i with row at count c: an eviction
// and an insert in one step, for a bank that stays full.
func (t *aggressorTable) replace(i, row int, c float64) {
	t.rows[i], t.counts[i] = int32(row), c
}

// remove deletes the entry at index i of bank by moving the bank's last
// entry into its place.
func (t *aggressorTable) remove(bank, i int) {
	t.n[bank]--
	last := bank*t.size + t.n[bank]
	t.rows[i], t.counts[i] = t.rows[last], t.counts[last]
}

// bankRows returns the rows bank currently tracks, in unspecified order.
// The slice aliases the table and is valid until the next mutation.
func (t *aggressorTable) bankRows(bank int) []int32 {
	base := bank * t.size
	return t.rows[base : base+t.n[bank]]
}

// reset empties bank.
func (t *aggressorTable) reset(bank int) { t.n[bank] = 0 }

// resetAll empties every bank.
func (t *aggressorTable) resetAll() { clear(t.n) }

package dram

// A chunk is the accumulators of disturbChunkRows consecutive internal rows.
// A blast neighbourhood is a handful of adjacent rows and a hammering pattern
// a few dozen, so a refresh window touches few chunks per bank side (4.2 on
// the repository benchmark's campaigns). At 32 rows a chunk is 256 bytes; a
// block per subarray would run as fast and cost 4 KiB per touched subarray,
// nearly all of it never written.
const (
	disturbChunkShift = 5
	disturbChunkRows  = 1 << disturbChunkShift
)

// disturbChunk is one touched chunk: its accumulators and which chunk of the
// bank they belong to (the index entry that points here).
type disturbChunk struct {
	vals *[disturbChunkRows]float64
	at   int
}

// disturbTable holds one bank side's disturbance accumulators for the current
// refresh window, densely: a row's accumulator is two array indexes away — no
// hashing, no probing, no tombstones — and a row nothing has disturbed reads
// as zero, which is all that "absent" ever meant to the model.
//
// index has one entry per chunk of the bank's rows: 0 while every row of the
// chunk is at zero, otherwise 1 + the chunk's position in chunks. chunks[:live]
// are the chunks touched this window; those beyond are zeroed and kept from
// earlier windows, so a bank hammered window after window settles and stops
// allocating, and reset costs what the window touched. The bank's spares —
// virtual rows from rows up — have a short slice of their own.
type disturbTable struct {
	index  []uint16
	chunks []disturbChunk
	live   int
	rows   int       // RowsPerBank: virtual rows from here up are spares
	spares []float64 // indexed by virt - rows
}

// disturbIndexLen is the number of index entries a bank of rows rows needs.
// Entries are uint16 and hold up to that count, which NewModule bounds.
func disturbIndexLen(rows int) int {
	return (rows + disturbChunkRows - 1) >> disturbChunkShift
}

// chunk returns the accumulators of the chunk a row of the bank (not a spare)
// lies in — row's own is vals[row&(disturbChunkRows-1)] — bringing the chunk
// into the window if this is its first touch.
func (t *disturbTable) chunk(row int) *[disturbChunkRows]float64 {
	c := t.index[row>>disturbChunkShift]
	if c == 0 {
		c = t.touch(row >> disturbChunkShift)
	}
	return t.chunks[c-1].vals
}

// touch makes chunk `at` of the bank live and returns its index entry.
func (t *disturbTable) touch(at int) uint16 {
	if t.live == len(t.chunks) {
		t.chunks = append(t.chunks, disturbChunk{vals: new([disturbChunkRows]float64)})
	}
	t.chunks[t.live].at = at
	t.live++
	t.index[at] = uint16(t.live)
	return uint16(t.live)
}

// zero restores a row's charge. A row whose chunk was never touched is at
// zero already, and stays unallocated.
func (t *disturbTable) zero(virt int) {
	if s := virt - t.rows; s >= 0 {
		t.spares[s] = 0
	} else if c := t.index[virt>>disturbChunkShift]; c != 0 {
		t.chunks[c-1].vals[virt&(disturbChunkRows-1)] = 0
	}
}

// reset restores every row's charge: the end of a refresh window. Only the
// chunks the window touched are cleared.
func (t *disturbTable) reset() {
	for _, ch := range t.chunks[:t.live] {
		t.index[ch.at] = 0
		*ch.vals = [disturbChunkRows]float64{}
	}
	t.live = 0
	clear(t.spares)
}

package addr

import (
	"fmt"

	"repro/internal/geometry"
)

// Skylake-like mapping constants (§4.2). On the evaluation server one row
// group is 1.5 MiB (192 banks × 8 KiB), a chunk is 16 row groups (24 MiB),
// and a mapping region — the span between the paper's 768 MiB-aligned
// "jumps" — is 32 chunks (768 MiB).
const (
	// RowGroupsPerChunk is the paper's n: each individually-contiguous
	// physical range populates n row groups at a time.
	RowGroupsPerChunk = 16
	// ChunksPerRegion is the number of chunks between mapping jumps;
	// half are populated by range A, half by range B.
	ChunksPerRegion = 32
)

// lineShift converts byte offsets to cache-line indices.
const lineShift = 6 // log2(geometry.CacheLineSize)

// SkylakeMapper models the Intel Skylake server physical-to-media address
// mapping described in §4.2:
//
//   - Each socket owns a contiguous slice of the physical address space.
//   - Within a row group, consecutive cache lines are interleaved round-robin
//     across all of the socket's banks (bank-level parallelism, §2.4).
//   - Row groups are populated in generally-ascending order: every
//     RowGroupsPerChunk row groups are filled alternately by two
//     individually-contiguous physical ranges A and B (the lower and upper
//     halves of the socket's physical space), with the pattern restarting
//     from new ranges at each region boundary — the paper's 768 MiB-aligned
//     mapping "jump".
//
// The construction makes every 4 KiB and 2 MiB page land in a single
// subarray group, while only about one third of 1 GiB-aligned ranges land in
// a single 3 GiB set of consecutive groups — both properties the paper
// reports for the real server.
//
// Decode and Encode run on precomputed machinery built once per geometry:
// reciprocal dividers for every geometry-derived divisor (fastDiv) and
// lookup tables for the cache-line interleave (interleaveLUT). The original
// arithmetic survives in ref_test.go as decodeRef/encodeRef, the oracle the
// fuzz tests compare the fast path against.
type SkylakeMapper struct {
	g geometry.Geometry

	rowGroupBytes int64 // bytes in one row group
	chunkBytes    int64 // RowGroupsPerChunk row groups
	regionBytes   int64 // ChunksPerRegion chunks
	halfBytes     int64 // bytes contributed to a region by one range
	socketBytes   int64

	totalBytes  int64
	halfSocket  int64 // socketBytes/2: start of range B
	rgPerRegion int64 // row groups per mapping region
	rgPerSocket int64 // row groups per socket
	rgPerHalf   int64 // row groups per physical range (half socket)
	banksPerSkt int64
	bnd         bounds

	divSocket   fastDiv // by socketBytes over [0, totalBytes)
	divChunk    fastDiv // by chunkBytes over [0, regionBytes)
	divRowGroup fastDiv // by rowGroupBytes over [0, halfSocket)
	divRegion   fastDiv // by regionBytes over [0, socketBytes)

	lut *interleaveLUT
}

// NewSkylakeMapper builds a mapper for g. The socket capacity must be an
// even number of regions so ranges A and B tile exactly.
func NewSkylakeMapper(g geometry.Geometry) (*SkylakeMapper, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := &SkylakeMapper{
		g:             g,
		rowGroupBytes: g.RowGroupBytes(),
		socketBytes:   g.SocketBytes(),
		totalBytes:    g.TotalBytes(),
		banksPerSkt:   int64(g.BanksPerSocket()),
		bnd:           newBounds(g),
	}
	m.chunkBytes = m.rowGroupBytes * RowGroupsPerChunk
	m.regionBytes = m.chunkBytes * ChunksPerRegion
	m.halfBytes = m.regionBytes / 2
	m.halfSocket = m.socketBytes / 2
	m.rgPerRegion = RowGroupsPerChunk * ChunksPerRegion
	m.rgPerSocket = m.socketBytes / m.rowGroupBytes
	m.rgPerHalf = m.rgPerSocket / 2
	if m.socketBytes%m.regionBytes != 0 {
		return nil, fmt.Errorf("addr: socket capacity %d is not a whole number of %d-byte mapping regions",
			m.socketBytes, m.regionBytes)
	}
	var err error
	if m.divSocket, err = newFastDiv(m.socketBytes, m.totalBytes-1); err != nil {
		return nil, err
	}
	if m.divChunk, err = newFastDiv(m.chunkBytes, m.regionBytes-1); err != nil {
		return nil, err
	}
	if m.divRowGroup, err = newFastDiv(m.rowGroupBytes, m.totalBytes-1); err != nil {
		return nil, err
	}
	if m.divRegion, err = newFastDiv(m.regionBytes, m.socketBytes-1); err != nil {
		return nil, err
	}
	if m.lut, err = newInterleaveLUT(g, g.BanksPerSocket()); err != nil {
		return nil, err
	}
	return m, nil
}

// Geometry returns the geometry the mapper serves.
func (m *SkylakeMapper) Geometry() geometry.Geometry { return m.g }

// ChunkBytes returns the bytes covered by one contiguous chunk (24 MiB on
// the evaluation server).
func (m *SkylakeMapper) ChunkBytes() int64 { return m.chunkBytes }

// Decode translates a host physical address to a media address.
func (m *SkylakeMapper) Decode(pa uint64) (geometry.MediaAddr, error) {
	if pa >= uint64(m.totalBytes) {
		return geometry.MediaAddr{}, rangeCheck(m.g, pa)
	}
	// Physical address -> media coordinates. Socket, range and half-region
	// spans are all whole numbers of row groups, so one reciprocal division
	// of the full address by the row-group span yields a global row-group
	// index that socket/range bases subtract from directly, and region and
	// chunk coordinates fall out of it by compile-time-constant divisions
	// the compiler strength-reduces (ChunksPerRegion/2 chunks of
	// RowGroupsPerChunk row groups per range slice). Unlike the reference
	// decode's chain of three data-dependent divmods, the two reciprocal divisions
	// here are independent and overlap in the pipeline.
	rg0, inGroup := m.divRowGroup.divmod(int64(pa))
	socket := m.divSocket.div(int64(pa))
	off := int64(pa) - socket*m.socketBytes
	rg := uint64(rg0 - socket*m.rgPerSocket) // unsigned: constant divisions below compile to bare shifts
	var odd int64
	if off >= m.halfSocket {
		rg -= uint64(m.rgPerHalf) // range B
		odd = 1
	}
	region := int64(rg / (RowGroupsPerChunk * ChunksPerRegion / 2))
	chunkInHalf := int64(rg / RowGroupsPerChunk % (ChunksPerRegion / 2))
	rgInChunk := int64(rg % RowGroupsPerChunk)
	mediaChunk := 2*chunkInHalf + odd
	rowGroup := region*m.rgPerRegion + mediaChunk*RowGroupsPerChunk + rgInChunk

	line := inGroup >> lineShift
	inLine := int(inGroup & (geometry.CacheLineSize - 1))
	bankIdx, lineInBank := m.lut.split(line)
	return geometry.MediaAddr{
		Bank: m.lut.bank(int(socket), bankIdx),
		Row:  int(rowGroup),
		Col:  lineInBank<<lineShift + inLine,
	}, nil
}

// DecodeBank is the col-free fast path of Decode: the dense
// bank index the interleave LUT yields is already the within-socket flat
// index, so no BankID is assembled at all.
func (m *SkylakeMapper) DecodeBank(pa uint64) (bank, row, socket int, err error) {
	if pa >= uint64(m.totalBytes) {
		return 0, 0, 0, rangeCheck(m.g, pa)
	}
	rg0, inGroup := m.divRowGroup.divmod(int64(pa))
	skt := m.divSocket.div(int64(pa))
	off := int64(pa) - skt*m.socketBytes
	rg := uint64(rg0 - skt*m.rgPerSocket)
	var odd int64
	if off >= m.halfSocket {
		rg -= uint64(m.rgPerHalf) // range B
		odd = 1
	}
	region := int64(rg / (RowGroupsPerChunk * ChunksPerRegion / 2))
	chunkInHalf := int64(rg / RowGroupsPerChunk % (ChunksPerRegion / 2))
	rgInChunk := int64(rg % RowGroupsPerChunk)
	mediaChunk := 2*chunkInHalf + odd
	rowGroup := region*m.rgPerRegion + mediaChunk*RowGroupsPerChunk + rgInChunk

	bankIdx, _ := m.lut.split(inGroup >> lineShift)
	return int(skt*m.banksPerSkt) + bankIdx, int(rowGroup), int(skt), nil
}

// Stripe returns pa's row group: RowGroupBytes of contiguous physical space
// interleaved over all of the socket's banks at one row index. It is the
// head of Decode without the per-line interleave split; the head is repeated
// here, as in DecodeBank, because a shared helper is past the inlining
// budget and the call would cost every Decode a tenth of its time.
func (m *SkylakeMapper) Stripe(pa uint64) (Stripe, error) {
	if pa >= uint64(m.totalBytes) {
		return Stripe{}, rangeCheck(m.g, pa)
	}
	rg0, inGroup := m.divRowGroup.divmod(int64(pa))
	socket := m.divSocket.div(int64(pa))
	off := int64(pa) - socket*m.socketBytes
	rg := uint64(rg0 - socket*m.rgPerSocket)
	var odd int64
	if off >= m.halfSocket {
		rg -= uint64(m.rgPerHalf) // range B
		odd = 1
	}
	region := int64(rg / (RowGroupsPerChunk * ChunksPerRegion / 2))
	chunkInHalf := int64(rg / RowGroupsPerChunk % (ChunksPerRegion / 2))
	rgInChunk := int64(rg % RowGroupsPerChunk)
	mediaChunk := 2*chunkInHalf + odd
	rowGroup := region*m.rgPerRegion + mediaChunk*RowGroupsPerChunk + rgInChunk
	return Stripe{
		Socket: int(socket), Banks: int(m.banksPerSkt), Row: int(rowGroup),
		Off: inGroup, Len: m.rowGroupBytes,
	}, nil
}

// Encode is the inverse of Decode.
func (m *SkylakeMapper) Encode(addr geometry.MediaAddr) (uint64, error) {
	if !m.bnd.valid(addr) {
		return 0, fmt.Errorf("%w: media address %v", ErrOutOfRange, addr)
	}
	bankIdx := int64(m.bnd.socketFlat(addr.Bank))
	lineInBank := int64(addr.Col >> lineShift)
	inLine := int64(addr.Col & (geometry.CacheLineSize - 1))
	line := lineInBank*m.banksPerSkt + bankIdx
	mediaOff := int64(addr.Row)*m.rowGroupBytes + line<<lineShift + inLine

	// Media offset -> physical offset (inverse of the Decode chain).
	region, inRegion := m.divRegion.divmod(mediaOff)
	mediaChunk, inChunk := m.divChunk.divmod(inRegion)
	rangeOff := region*m.halfBytes + (mediaChunk>>1)*m.chunkBytes + inChunk
	if mediaChunk&1 == 1 {
		rangeOff += m.halfSocket // range B
	}
	return uint64(int64(addr.Bank.Socket)*m.socketBytes + rangeOff), nil
}

// LinearMapper is an ablation mapping with no bank interleaving: physical
// addresses fill one bank completely before moving to the next. It destroys
// bank-level parallelism for sequential access patterns and is used by the
// §4.1 ablation benchmarks to quantify what subarray groups preserve.
type LinearMapper struct {
	g geometry.Geometry

	totalBytes int64
	bankBytes  int64
	rowBytes   int64
	divBank    fastDiv // by BankBytes over [0, totalBytes)
	divRow     fastDiv // by RowBytes over [0, BankBytes)
	bankIDs    []geometry.BankID
	bnd        bounds
}

// NewLinearMapper builds the no-interleave mapper.
func NewLinearMapper(g geometry.Geometry) (*LinearMapper, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := &LinearMapper{
		g:          g,
		totalBytes: g.TotalBytes(),
		bankBytes:  g.BankBytes(),
		rowBytes:   int64(g.RowBytes),
		bnd:        newBounds(g),
	}
	var err error
	if m.divBank, err = newFastDiv(g.BankBytes(), m.totalBytes-1); err != nil {
		return nil, err
	}
	if m.divRow, err = newFastDiv(int64(g.RowBytes), g.BankBytes()-1); err != nil {
		return nil, err
	}
	m.bankIDs = make([]geometry.BankID, g.TotalBanks())
	for i := range m.bankIDs {
		m.bankIDs[i] = geometry.BankFromFlat(g, i)
	}
	return m, nil
}

// Geometry returns the geometry the mapper serves.
func (m *LinearMapper) Geometry() geometry.Geometry { return m.g }

// Decode translates a host physical address to a media address.
func (m *LinearMapper) Decode(pa uint64) (geometry.MediaAddr, error) {
	if pa >= uint64(m.totalBytes) {
		return geometry.MediaAddr{}, rangeCheck(m.g, pa)
	}
	flat, off := m.divBank.divmod(int64(pa))
	row, col := m.divRow.divmod(off)
	return geometry.MediaAddr{
		Bank: m.bankIDs[flat],
		Row:  int(row),
		Col:  int(col),
	}, nil
}

// DecodeBank is the col-free fast path of Decode.
func (m *LinearMapper) DecodeBank(pa uint64) (bank, row, socket int, err error) {
	if pa >= uint64(m.totalBytes) {
		return 0, 0, 0, rangeCheck(m.g, pa)
	}
	flat, off := m.divBank.divmod(int64(pa))
	return int(flat), int(m.divRow.div(off)), m.bankIDs[flat].Socket, nil
}

// Stripe returns pa's row: with no interleaving a stripe is one bank wide.
func (m *LinearMapper) Stripe(pa uint64) (Stripe, error) {
	if pa >= uint64(m.totalBytes) {
		return Stripe{}, rangeCheck(m.g, pa)
	}
	flat, off := m.divBank.divmod(int64(pa))
	row, col := m.divRow.divmod(off)
	id := m.bankIDs[flat]
	return Stripe{
		Socket: id.Socket, Bank0: m.bnd.socketFlat(id), Banks: 1,
		Row: int(row), Off: col, Len: m.rowBytes,
	}, nil
}

// Encode is the inverse of Decode.
func (m *LinearMapper) Encode(addr geometry.MediaAddr) (uint64, error) {
	if !m.bnd.valid(addr) {
		return 0, fmt.Errorf("%w: media address %v", ErrOutOfRange, addr)
	}
	flat := int64(m.bnd.flat(addr.Bank))
	return uint64(flat*m.bankBytes + int64(addr.Row)*m.rowBytes + int64(addr.Col)), nil
}

package addr

import (
	"fmt"

	"repro/internal/geometry"
)

// PartitionedMapper models the §8.1/§8.4 "extended addressing control"
// future: each socket's physical space is split into Partitions contiguous
// slices, and each slice interleaves its cache lines over a disjoint subset
// of the socket's banks. Pages from different partitions never share a
// bank, so logical NUMA nodes built on partitions isolate DRAM *timing*
// (bank conflicts, DRAMA-style channels) in addition to Rowhammer — at the
// cost of 1/Partitions of the bank-level parallelism per tenant.
//
// Default BIOS mappings interleave every page over all banks, making this
// isolation impossible today (§8.4); the mapper exists to quantify the
// trade-off.
//
// Like SkylakeMapper, the hot path runs on fastDiv dividers and an
// interleave LUT built at construction, with decodeRef (ref_test.go) as the
// fuzz oracle.
type PartitionedMapper struct {
	g          geometry.Geometry
	partitions int

	banksPer      int   // banks per partition
	rowGroupBytes int64 // bytes of one partition-local row group
	partBytes     int64 // capacity of one partition
	socketBytes   int64

	totalBytes  int64
	divSocket   fastDiv // by socketBytes over [0, totalBytes)
	divPart     fastDiv // by partBytes over [0, socketBytes)
	divRowGroup fastDiv // by rowGroupBytes over [0, partBytes)
	lut         *interleaveLUT
	bnd         bounds
	banksPerSkt int
}

// NewPartitionedMapper builds a mapper with the given partition count;
// BanksPerSocket must divide evenly.
func NewPartitionedMapper(g geometry.Geometry, partitions int) (*PartitionedMapper, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if partitions <= 0 || g.BanksPerSocket()%partitions != 0 {
		return nil, fmt.Errorf("addr: %d banks/socket not divisible into %d partitions",
			g.BanksPerSocket(), partitions)
	}
	m := &PartitionedMapper{
		g:           g,
		partitions:  partitions,
		banksPer:    g.BanksPerSocket() / partitions,
		socketBytes: g.SocketBytes(),
		totalBytes:  g.TotalBytes(),
		bnd:         newBounds(g),
		banksPerSkt: g.BanksPerSocket(),
	}
	m.rowGroupBytes = int64(m.banksPer) * int64(g.RowBytes)
	m.partBytes = m.socketBytes / int64(partitions)
	var err error
	if m.divSocket, err = newFastDiv(m.socketBytes, m.totalBytes-1); err != nil {
		return nil, err
	}
	if m.divPart, err = newFastDiv(m.partBytes, m.socketBytes-1); err != nil {
		return nil, err
	}
	if m.divRowGroup, err = newFastDiv(m.rowGroupBytes, m.partBytes-1); err != nil {
		return nil, err
	}
	if m.lut, err = newInterleaveLUT(g, m.banksPer); err != nil {
		return nil, err
	}
	return m, nil
}

// Geometry returns the geometry the mapper serves.
func (m *PartitionedMapper) Geometry() geometry.Geometry { return m.g }

// Decode translates a host physical address to a media address.
func (m *PartitionedMapper) Decode(pa uint64) (geometry.MediaAddr, error) {
	if pa >= uint64(m.totalBytes) {
		return geometry.MediaAddr{}, rangeCheck(m.g, pa)
	}
	socket, off := m.divSocket.divmod(int64(pa))
	part, inPart := m.divPart.divmod(off)
	rowGroup, inGroup := m.divRowGroup.divmod(inPart)

	line := inGroup >> lineShift
	inLine := int(inGroup & (geometry.CacheLineSize - 1))
	bankInPart, lineInBank := m.lut.split(line)
	bankIdx := int(part)*m.banksPer + bankInPart
	return geometry.MediaAddr{
		Bank: m.lut.bank(int(socket), bankIdx),
		Row:  int(rowGroup),
		Col:  lineInBank<<lineShift + inLine,
	}, nil
}

// DecodeBank is the col-free fast path of Decode.
func (m *PartitionedMapper) DecodeBank(pa uint64) (bank, row, socket int, err error) {
	if pa >= uint64(m.totalBytes) {
		return 0, 0, 0, rangeCheck(m.g, pa)
	}
	skt, off := m.divSocket.divmod(int64(pa))
	part, inPart := m.divPart.divmod(off)
	rowGroup, inGroup := m.divRowGroup.divmod(inPart)
	bankInPart, _ := m.lut.split(inGroup >> lineShift)
	bank = int(skt)*m.banksPerSkt + int(part)*m.banksPer + bankInPart
	return bank, int(rowGroup), int(skt), nil
}

// Stripe returns pa's partition-local row group: one row index of the
// partition's banks, contiguous in the partition's physical slice.
func (m *PartitionedMapper) Stripe(pa uint64) (Stripe, error) {
	if pa >= uint64(m.totalBytes) {
		return Stripe{}, rangeCheck(m.g, pa)
	}
	socket, off := m.divSocket.divmod(int64(pa))
	part, inPart := m.divPart.divmod(off)
	rowGroup, inGroup := m.divRowGroup.divmod(inPart)
	return Stripe{
		Socket: int(socket), Bank0: int(part) * m.banksPer, Banks: m.banksPer,
		Row: int(rowGroup), Off: inGroup, Len: m.rowGroupBytes,
	}, nil
}

// Encode is the inverse of Decode.
func (m *PartitionedMapper) Encode(addr geometry.MediaAddr) (uint64, error) {
	if !m.bnd.valid(addr) {
		return 0, fmt.Errorf("%w: media address %v", ErrOutOfRange, addr)
	}
	bankIdx := m.bnd.socketFlat(addr.Bank)
	part := bankIdx / m.banksPer
	bankInPart := int64(bankIdx % m.banksPer)
	lineInBank := int64(addr.Col >> lineShift)
	inLine := int64(addr.Col & (geometry.CacheLineSize - 1))
	line := lineInBank*int64(m.banksPer) + bankInPart
	inPart := int64(addr.Row)*m.rowGroupBytes + line<<lineShift + inLine
	off := int64(part)*m.partBytes + inPart
	return uint64(int64(addr.Bank.Socket)*m.socketBytes + off), nil
}

// Ensure interface conformance.
var _ Mapper = (*PartitionedMapper)(nil)

package addr

import (
	"fmt"

	"repro/internal/geometry"
)

// The original divide/modulo implementations of the mappers, kept verbatim
// as the oracle the fuzz and sweep tests compare the shipped LUT/reciprocal
// fast paths against. Shipped code has one decode path; these live only in
// the test binary.

// decodeRef is the original divide/modulo implementation of Decode, kept as
// the oracle for the fuzz equivalence tests.
func (m *SkylakeMapper) decodeRef(pa uint64) (geometry.MediaAddr, error) {
	if err := rangeCheck(m.g, pa); err != nil {
		return geometry.MediaAddr{}, err
	}
	socket := int(pa / uint64(m.socketBytes))
	off := int64(pa % uint64(m.socketBytes))

	mediaOff := m.physToMedia(off)

	rowGroup := mediaOff / m.rowGroupBytes
	inGroup := mediaOff % m.rowGroupBytes
	line := inGroup / geometry.CacheLineSize
	inLine := int(inGroup % geometry.CacheLineSize)
	banks := int64(m.g.BanksPerSocket())
	bankIdx := int(line % banks)
	lineInBank := line / banks

	bank := geometry.BankFromSocketFlat(m.g, socket, bankIdx)
	return geometry.MediaAddr{
		Bank: bank,
		Row:  int(rowGroup),
		Col:  int(lineInBank)*geometry.CacheLineSize + inLine,
	}, nil
}

// encodeRef is the original divide/modulo implementation of Encode, kept as
// the oracle for the fuzz equivalence tests.
func (m *SkylakeMapper) encodeRef(addr geometry.MediaAddr) (uint64, error) {
	if !addr.Valid(m.g) {
		return 0, fmt.Errorf("%w: media address %v", ErrOutOfRange, addr)
	}
	banks := int64(m.g.BanksPerSocket())
	bankIdx := int64(addr.Bank.Flat(m.g) - addr.Bank.Socket*m.g.BanksPerSocket())
	lineInBank := int64(addr.Col / geometry.CacheLineSize)
	inLine := int64(addr.Col % geometry.CacheLineSize)
	line := lineInBank*banks + bankIdx
	mediaOff := int64(addr.Row)*m.rowGroupBytes + line*geometry.CacheLineSize + inLine

	off := m.mediaToPhys(mediaOff)
	return uint64(int64(addr.Bank.Socket)*m.socketBytes + off), nil
}

// physToMedia maps a physical offset within a socket to a media offset.
//
// The socket's physical space is viewed as two contiguous halves: range A
// (lower half) and range B (upper half). Region r of media space is
// populated by the r-th halfBytes-sized slice of each range, A filling even
// chunks and B filling odd chunks in ascending order.
func (m *SkylakeMapper) physToMedia(off int64) int64 {
	var rangeOff int64
	var odd int64
	if off < m.socketBytes/2 {
		rangeOff = off // range A
	} else {
		rangeOff = off - m.socketBytes/2 // range B
		odd = 1
	}
	region := rangeOff / m.halfBytes
	inHalf := rangeOff % m.halfBytes
	chunkInHalf := inHalf / m.chunkBytes
	inChunk := inHalf % m.chunkBytes
	mediaChunk := 2*chunkInHalf + odd
	return region*m.regionBytes + mediaChunk*m.chunkBytes + inChunk
}

// mediaToPhys is the inverse of physToMedia.
func (m *SkylakeMapper) mediaToPhys(mediaOff int64) int64 {
	region := mediaOff / m.regionBytes
	inRegion := mediaOff % m.regionBytes
	mediaChunk := inRegion / m.chunkBytes
	inChunk := inRegion % m.chunkBytes
	chunkInHalf := mediaChunk / 2
	rangeOff := region*m.halfBytes + chunkInHalf*m.chunkBytes + inChunk
	if mediaChunk%2 == 1 {
		return m.socketBytes/2 + rangeOff // range B
	}
	return rangeOff // range A
}

// decodeRef is the original divide/modulo implementation of Decode, kept as
// the oracle for the fuzz equivalence tests.
func (m *LinearMapper) decodeRef(pa uint64) (geometry.MediaAddr, error) {
	if err := rangeCheck(m.g, pa); err != nil {
		return geometry.MediaAddr{}, err
	}
	bankBytes := uint64(m.g.BankBytes())
	flat := int(pa / bankBytes)
	off := int64(pa % bankBytes)
	return geometry.MediaAddr{
		Bank: geometry.BankFromFlat(m.g, flat),
		Row:  int(off / int64(m.g.RowBytes)),
		Col:  int(off % int64(m.g.RowBytes)),
	}, nil
}

// decodeRef is the original divide/modulo implementation of Decode, kept as
// the oracle for the fuzz equivalence tests.
func (m *PartitionedMapper) decodeRef(pa uint64) (geometry.MediaAddr, error) {
	if err := rangeCheck(m.g, pa); err != nil {
		return geometry.MediaAddr{}, err
	}
	socket := int(pa / uint64(m.socketBytes))
	off := int64(pa % uint64(m.socketBytes))
	part := int(off / m.partBytes)
	inPart := off % m.partBytes

	rowGroup := inPart / m.rowGroupBytes
	inGroup := inPart % m.rowGroupBytes
	line := inGroup / geometry.CacheLineSize
	inLine := int(inGroup % geometry.CacheLineSize)
	bankIdx := part*m.banksPer + int(line%int64(m.banksPer))
	lineInBank := line / int64(m.banksPer)

	return geometry.MediaAddr{
		Bank: geometry.BankFromSocketFlat(m.g, socket, bankIdx),
		Row:  int(rowGroup),
		Col:  int(lineInBank)*geometry.CacheLineSize + inLine,
	}, nil
}

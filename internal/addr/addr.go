// Package addr implements physical-to-media address translation for server
// DRAM, mirroring the decode logic Siloz ports from the Intel Skylake EDAC
// drivers (§5.3), plus the DIMM-internal row-address transformations of §6
// (DDR4 rank mirroring, B-side inversion, vendor scrambling, and row repairs).
//
// Two layers of translation are modelled:
//
//  1. Physical→media (Mapper): the memory controller's fixed, BIOS-defined
//     mapping from host physical addresses to (bank, row, column) media
//     addresses, interleaving cache lines across a socket's banks for
//     bank-level parallelism (§2.4).
//  2. Media→internal (InternalMapper): the DIMM's private remapping of row
//     media addresses to internal row locations, which determines true
//     electrical adjacency for Rowhammer purposes (§6).
package addr

import (
	"errors"
	"fmt"

	"repro/internal/geometry"
)

// ErrOutOfRange is returned when an address falls outside the geometry's
// populated DRAM.
var ErrOutOfRange = errors.New("addr: address out of range")

// Mapper translates between host physical addresses and media addresses.
// Implementations must be exact bijections over [0, TotalBytes).
type Mapper interface {
	// Decode translates a host physical address to a media address.
	Decode(pa uint64) (geometry.MediaAddr, error)
	// Encode is the inverse of Decode.
	Encode(m geometry.MediaAddr) (uint64, error)
	// DecodeBank is Decode for callers that only steer on bank, row and
	// socket (the memory controller's per-access decode): it skips
	// assembling the structured BankID and the column offset. bank is the
	// dense server-wide index BankID.Flat would return.
	DecodeBank(pa uint64) (bank, row, socket int, err error)
	// Stripe returns the stripe containing pa: the unit bulk accesses
	// decode at, instead of once per cache line.
	Stripe(pa uint64) (Stripe, error)
	// Geometry returns the geometry the mapper was built for.
	Geometry() geometry.Geometry
}

// Stripe is a physically contiguous span [pa-Off, pa-Off+Len) that lands in
// one media row index of Banks consecutive banks of one socket: cache line l
// of the span (l = byte offset / 64) lives in the bank with dense
// within-socket index Bank0 + l%Banks (geometry.BankFromSocketFlat), at row Row,
// column (l/Banks)*64. Len is Banks rows' worth of bytes, so stripes tile
// the address space exactly and every row of a stripe is covered by it
// alone. It is the §4.2 row group (Skylake), the partition-local row group
// (partitioned), or a single row (linear).
type Stripe struct {
	Socket int
	Bank0  int   // dense within-socket index of the first bank
	Banks  int   // interleave width
	Row    int   // media row index, the same in every bank
	Off    int64 // pa's byte offset within the stripe
	Len    int64 // stripe length in bytes: Banks * RowBytes
}

// Kind selects a physical-to-media mapping family.
type Kind int

const (
	// KindSkylake is the Skylake-like interleaved mapping of §4.2, the
	// mapping of the paper's evaluation server and the default everywhere.
	KindSkylake Kind = iota
	// KindLinear is the no-interleave ablation mapping: addresses fill one
	// bank completely before moving to the next.
	KindLinear
)

func (k Kind) String() string {
	switch k {
	case KindSkylake:
		return "skylake"
	case KindLinear:
		return "linear"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// NewMapper builds a mapper of the given kind for g. It is the constructor
// callers should use unless they need a concrete type's extra methods
// (SkylakeMapper.ChunkBytes); the LUT and
// reciprocal-divider fast paths are wired up behind it either way.
// Partitioned mappings take a partition count and keep their dedicated
// NewPartitionedMapper constructor.
func NewMapper(g geometry.Geometry, k Kind) (Mapper, error) {
	switch k {
	case KindSkylake:
		return NewSkylakeMapper(g)
	case KindLinear:
		return NewLinearMapper(g)
	}
	return nil, fmt.Errorf("addr: unknown mapper kind %d", int(k))
}

// Side identifies one of the two internal half-rows of a DDR4 row (§2.3).
// Each 8 KiB external row is split across a rank's "A" and "B" sides, each
// half simultaneously serving half of a data request.
type Side int

const (
	// SideA is the non-inverted half-row.
	SideA Side = iota
	// SideB is the half-row whose lower-order row address bits are
	// inverted per DDR4RCD02 (§6).
	SideB
)

func (s Side) String() string {
	if s == SideA {
		return "A"
	}
	return "B"
}

// rangeCheck validates pa against g.
func rangeCheck(g geometry.Geometry, pa uint64) error {
	if pa >= uint64(g.TotalBytes()) {
		return fmt.Errorf("%w: pa=%#x >= %#x", ErrOutOfRange, pa, g.TotalBytes())
	}
	return nil
}

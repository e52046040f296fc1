// Package geometry describes server DRAM topology: sockets, channels, DIMMs,
// ranks, banks, subarrays, and rows. All other packages derive sizes and
// address layouts from a Geometry value, so the whole simulation can be
// re-targeted to a different server by constructing a different Geometry.
//
// The default configuration mirrors the Siloz evaluation platform (Table 2 of
// the paper): a dual-socket Intel Xeon Gold 6230 with 192 GiB of DDR4 per
// socket, organized as six 32 GiB 2Rx4 DIMMs per socket (192 banks/socket),
// 1 GiB banks of 8 KiB rows, and 1024-row subarrays.
package geometry

import (
	"fmt"
)

// Common sizes in bytes.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30

	// PageSize4K, PageSize2M and PageSize1G are the x86-64 page sizes the
	// hypervisor provisions memory in.
	PageSize4K = 4 * KiB
	PageSize2M = 2 * MiB
	PageSize1G = 1 * GiB

	// CacheLineSize is the interleaving granularity of physical-to-media
	// address mappings (§2.4).
	CacheLineSize = 64
)

// Geometry describes the DRAM organization of one server.
//
// The hierarchy is: Sockets × DIMMsPerSocket × RanksPerDIMM × BanksPerRank
// banks, each bank holding RowsPerBank rows of RowBytes bytes. Subarrays
// partition each bank into contiguous runs of RowsPerSubarray rows.
type Geometry struct {
	// Sockets is the number of CPU sockets; each socket with its DIMMs
	// forms one physical NUMA node (§2.2).
	Sockets int
	// CoresPerSocket is the number of logical cores per socket.
	CoresPerSocket int
	// DIMMsPerSocket is the number of DRAM modules attached to each socket.
	DIMMsPerSocket int
	// RanksPerDIMM is the number of ranks per module (2 for 2Rx4 parts).
	RanksPerDIMM int
	// BanksPerRank is the number of banks per rank (16 in DDR4).
	BanksPerRank int
	// RowsPerBank is the number of DRAM rows in each bank.
	RowsPerBank int
	// RowBytes is the externally-visible size of one row (8 KiB in the
	// paper's server; internally split into two half-rows, §2.3).
	RowBytes int
	// RowsPerSubarray is the number of rows in one subarray. Commodity
	// sizes range 512-2048; the evaluation server uses 1024.
	RowsPerSubarray int
}

// Default returns the Siloz evaluation-server geometry (Table 2).
func Default() Geometry {
	return Geometry{
		Sockets:         2,
		CoresPerSocket:  40,
		DIMMsPerSocket:  6,
		RanksPerDIMM:    2,
		BanksPerRank:    16,
		RowsPerBank:     128 * 1024, // 1 GiB bank / 8 KiB rows
		RowBytes:        8 * KiB,
		RowsPerSubarray: 1024,
	}
}

// WithSubarraySize returns a copy of g using rows rows per subarray. It is
// how the Siloz-512 and Siloz-2048 sensitivity variants (§7.4) are built.
func (g Geometry) WithSubarraySize(rows int) Geometry {
	g.RowsPerSubarray = rows
	return g
}

// WithSNC returns a copy of g with sub-NUMA clustering (§8.1): each socket
// is exposed as k clusters, each owning 1/k of the socket's DIMMs, cores
// and a contiguous slice of its physical addresses. Because a page then
// interleaves over only the cluster's banks, every subarray group shrinks
// by the same factor — the knob cloud providers can use for finer-grained
// provisioning. DIMMsPerSocket and CoresPerSocket must divide by k.
func (g Geometry) WithSNC(k int) (Geometry, error) {
	if k <= 0 {
		return g, fmt.Errorf("geometry: SNC factor must be positive, got %d", k)
	}
	if g.DIMMsPerSocket%k != 0 || g.CoresPerSocket%k != 0 {
		return g, fmt.Errorf("geometry: %d DIMMs / %d cores per socket not divisible by SNC factor %d",
			g.DIMMsPerSocket, g.CoresPerSocket, k)
	}
	g.Sockets *= k
	g.DIMMsPerSocket /= k
	g.CoresPerSocket /= k
	return g, nil
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.Sockets <= 0:
		return fmt.Errorf("geometry: Sockets must be positive, got %d", g.Sockets)
	case g.CoresPerSocket <= 0:
		return fmt.Errorf("geometry: CoresPerSocket must be positive, got %d", g.CoresPerSocket)
	case g.DIMMsPerSocket <= 0:
		return fmt.Errorf("geometry: DIMMsPerSocket must be positive, got %d", g.DIMMsPerSocket)
	case g.RanksPerDIMM <= 0:
		return fmt.Errorf("geometry: RanksPerDIMM must be positive, got %d", g.RanksPerDIMM)
	case g.BanksPerRank <= 0:
		return fmt.Errorf("geometry: BanksPerRank must be positive, got %d", g.BanksPerRank)
	case g.RowsPerBank <= 0:
		return fmt.Errorf("geometry: RowsPerBank must be positive, got %d", g.RowsPerBank)
	case g.RowBytes <= 0 || g.RowBytes%CacheLineSize != 0:
		return fmt.Errorf("geometry: RowBytes must be a positive multiple of %d, got %d", CacheLineSize, g.RowBytes)
	case g.RowsPerSubarray <= 0:
		return fmt.Errorf("geometry: RowsPerSubarray must be positive, got %d", g.RowsPerSubarray)
	case g.RowsPerBank%g.RowsPerSubarray != 0:
		return fmt.Errorf("geometry: RowsPerBank (%d) must be a multiple of RowsPerSubarray (%d)",
			g.RowsPerBank, g.RowsPerSubarray)
	}
	return nil
}

// BanksPerDIMM returns the number of banks in one module.
func (g Geometry) BanksPerDIMM() int { return g.RanksPerDIMM * g.BanksPerRank }

// BanksPerSocket returns the number of banks in one physical node.
func (g Geometry) BanksPerSocket() int { return g.DIMMsPerSocket * g.BanksPerDIMM() }

// TotalBanks returns the number of banks in the whole server.
func (g Geometry) TotalBanks() int { return g.Sockets * g.BanksPerSocket() }

// BankBytes returns the capacity of one bank.
func (g Geometry) BankBytes() int64 { return int64(g.RowsPerBank) * int64(g.RowBytes) }

// SocketBytes returns the DRAM capacity of one physical node.
func (g Geometry) SocketBytes() int64 { return int64(g.BanksPerSocket()) * g.BankBytes() }

// TotalBytes returns the DRAM capacity of the server.
func (g Geometry) TotalBytes() int64 { return int64(g.Sockets) * g.SocketBytes() }

// SubarraysPerBank returns the number of subarrays in each bank.
func (g Geometry) SubarraysPerBank() int { return g.RowsPerBank / g.RowsPerSubarray }

// SubarrayGroupBytes returns the size of one subarray group: at least one
// subarray from every bank in a physical node (§4.1).
func (g Geometry) SubarrayGroupBytes() int64 {
	return int64(g.BanksPerSocket()) * int64(g.RowsPerSubarray) * int64(g.RowBytes)
}

// RowGroupBytes returns the size of one row group: one row from every bank
// in a physical node (Fig. 2).
func (g Geometry) RowGroupBytes() int64 {
	return int64(g.BanksPerSocket()) * int64(g.RowBytes)
}

// String summarizes the geometry, e.g. for cmd/siloz-topology output.
func (g Geometry) String() string {
	return fmt.Sprintf(
		"%d sockets x %d DIMMs x %d ranks x %d banks; %d banks/socket; %d GiB/socket; %d-row subarrays; %.2f GiB subarray groups",
		g.Sockets, g.DIMMsPerSocket, g.RanksPerDIMM, g.BanksPerRank,
		g.BanksPerSocket(), g.SocketBytes()/GiB, g.RowsPerSubarray,
		float64(g.SubarrayGroupBytes())/float64(GiB))
}

// BankID identifies one bank within the server.
type BankID struct {
	Socket int
	DIMM   int
	Rank   int
	Bank   int
}

// Valid reports whether the bank ID is within g.
func (b BankID) Valid(g Geometry) bool {
	return b.Socket >= 0 && b.Socket < g.Sockets &&
		b.DIMM >= 0 && b.DIMM < g.DIMMsPerSocket &&
		b.Rank >= 0 && b.Rank < g.RanksPerDIMM &&
		b.Bank >= 0 && b.Bank < g.BanksPerRank
}

// Flat returns the bank's dense index in [0, g.TotalBanks()).
func (b BankID) Flat(g Geometry) int {
	return ((b.Socket*g.DIMMsPerSocket+b.DIMM)*g.RanksPerDIMM+b.Rank)*g.BanksPerRank + b.Bank
}

// BankFromSocketFlat returns the bank at a dense within-socket index in
// [0, g.BanksPerSocket()): Flat's order, restarted at zero on every socket.
func BankFromSocketFlat(g Geometry, socket, idx int) BankID {
	bank := idx % g.BanksPerRank
	idx /= g.BanksPerRank
	rank := idx % g.RanksPerDIMM
	dimm := idx / g.RanksPerDIMM
	return BankID{Socket: socket, DIMM: dimm, Rank: rank, Bank: bank}
}

// BankFromFlat is the inverse of BankID.Flat.
func BankFromFlat(g Geometry, flat int) BankID {
	bank := flat % g.BanksPerRank
	flat /= g.BanksPerRank
	rank := flat % g.RanksPerDIMM
	flat /= g.RanksPerDIMM
	dimm := flat % g.DIMMsPerSocket
	socket := flat / g.DIMMsPerSocket
	return BankID{Socket: socket, DIMM: dimm, Rank: rank, Bank: bank}
}

func (b BankID) String() string {
	return fmt.Sprintf("s%d.d%d.r%d.b%d", b.Socket, b.DIMM, b.Rank, b.Bank)
}

// MediaAddr identifies a DRAM cell range: a row within a bank plus a byte
// column offset. It is what the memory controller produces from a host
// physical address (§2.4).
type MediaAddr struct {
	Bank BankID
	Row  int
	Col  int // byte offset within the row
}

// Valid reports whether the media address is within g.
func (m MediaAddr) Valid(g Geometry) bool {
	return m.Bank.Valid(g) && m.Row >= 0 && m.Row < g.RowsPerBank &&
		m.Col >= 0 && m.Col < g.RowBytes
}

func (m MediaAddr) String() string {
	return fmt.Sprintf("%s.row%d.col%d", m.Bank, m.Row, m.Col)
}

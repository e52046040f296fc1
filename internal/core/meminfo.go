package core

import (
	"fmt"
	"strings"

	"repro/internal/numa"
)

// NodeStat is one logical node's memory statistics, the information the
// kernel periodically aggregates for allocation and reclaim decisions.
type NodeStat struct {
	NodeID     int
	Kind       numa.NodeKind
	TotalBytes uint64
	FreeBytes  uint64
}

// MemInfo is a refreshed snapshot over all logical nodes.
type MemInfo struct {
	Stats []NodeStat
	// Polled counts how many nodes were actually iterated during the
	// refresh. Siloz manages many more logical nodes than the baseline,
	// so it avoids iterating nodes whose statistics cannot have changed:
	// a guest-reserved node's free memory is static between VM boot and
	// shutdown (§5.3), so only nodes with allocator activity since the
	// last refresh are polled.
	Polled int
}

// cachedStat is one node's statistics as of its last poll, and the
// allocator version they were read at.
type cachedStat struct {
	stat    NodeStat
	version uint64
	valid   bool
}

// RefreshMemInfo updates the hypervisor's node statistics, skipping nodes
// whose allocators are unchanged since the previous refresh (§5.3's
// lock-avoidance optimization for large logical node counts).
func (h *Hypervisor) RefreshMemInfo() (MemInfo, error) {
	nodes := h.topo.Nodes()
	if h.stats == nil {
		h.stats = make([]cachedStat, len(nodes))
	}
	var info MemInfo
	for _, n := range nodes {
		a, err := h.Allocator(n.ID)
		if err != nil {
			return info, err
		}
		v, c := a.Version(), &h.stats[n.ID]
		if !c.valid || c.version != v {
			info.Polled++
			*c = cachedStat{stat: NodeStat{NodeID: n.ID, Kind: n.Kind, TotalBytes: a.TotalBytes(), FreeBytes: a.FreeBytes()}, version: v, valid: true}
		}
		info.Stats = append(info.Stats, c.stat)
	}
	return info, nil
}

// Render formats the snapshot like a /proc-style report.
func (m MemInfo) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-6s %14s %14s\n", "node", "kind", "total", "free")
	for _, s := range m.Stats {
		fmt.Fprintf(&b, "%-5d %-6s %14d %14d\n", s.NodeID, s.Kind, s.TotalBytes, s.FreeBytes)
	}
	fmt.Fprintf(&b, "(%d of %d nodes polled)\n", m.Polled, len(m.Stats))
	return b.String()
}

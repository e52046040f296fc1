package fleet

import "repro/internal/geometry"

// HostMetrics is one host's capacity picture.
type HostMetrics struct {
	Host string
	// GuestNodes / OwnedNodes count the host's guest-reserved
	// subarray-group nodes and how many a VM currently owns.
	GuestNodes int
	OwnedNodes int
	// TotalGuestBytes is the host's full guest-reservable capacity;
	// OwnedBytes is the capacity inside owned nodes.
	TotalGuestBytes uint64
	OwnedBytes      uint64
	// StrandedBytes is free capacity locked inside owned nodes: the
	// owner's exclusive claim (the isolation invariant) makes it
	// unusable by any other VM — the fleet-scale cost of
	// subarray-group-granular isolation (§8.1's internal fragmentation).
	StrandedBytes uint64
	// FreeBytes is unowned huge-page capacity (admittable).
	FreeBytes uint64
	// VMs is the host's resident VM count.
	VMs int
}

// Utilization is the owned fraction of the host's guest nodes — the
// scheduler's hot/cold signal. Node-granular, not byte-granular: an owned
// node is unavailable regardless of how full it is.
func (m HostMetrics) Utilization() float64 {
	if m.GuestNodes == 0 {
		return 0
	}
	return float64(m.OwnedNodes) / float64(m.GuestNodes)
}

// FleetMetrics aggregates every host.
type FleetMetrics struct {
	Hosts []HostMetrics
	// Totals across hosts.
	GuestNodes      int
	OwnedNodes      int
	TotalGuestBytes uint64
	OwnedBytes      uint64
	StrandedBytes   uint64
	FreeBytes       uint64
	VMs             int
}

// Utilization is the fleet-wide owned-node fraction.
func (m *FleetMetrics) Utilization() float64 {
	if m.GuestNodes == 0 {
		return 0
	}
	return float64(m.OwnedNodes) / float64(m.GuestNodes)
}

// StrandedFraction is stranded bytes over total guest capacity.
func (m *FleetMetrics) StrandedFraction() float64 {
	if m.TotalGuestBytes == 0 {
		return 0
	}
	return float64(m.StrandedBytes) / float64(m.TotalGuestBytes)
}

// Metrics samples the fleet's capacity state. Call it while no op runs for
// a consistent snapshot.
func (c *Cluster) Metrics() (*FleetMetrics, error) {
	out := &FleetMetrics{}
	for _, h := range c.hosts {
		occ, err := h.Planner().Occupancy()
		if err != nil {
			return nil, err
		}
		hm := HostMetrics{Host: h.Name(), VMs: len(h.Hypervisor().VMs())}
		for _, o := range occ {
			hm.GuestNodes++
			hm.TotalGuestBytes += o.TotalBytes
			if o.Owner != "" {
				hm.OwnedNodes++
				hm.OwnedBytes += o.TotalBytes
				// Byte-accurate free space, not huge-page capacity:
				// fragmented tails are stranded too.
				hm.StrandedBytes += o.FreeBytes
			} else {
				hm.FreeBytes += uint64(o.FreePages2M) * geometry.PageSize2M
			}
		}
		out.Hosts = append(out.Hosts, hm)
		out.GuestNodes += hm.GuestNodes
		out.OwnedNodes += hm.OwnedNodes
		out.TotalGuestBytes += hm.TotalGuestBytes
		out.OwnedBytes += hm.OwnedBytes
		out.StrandedBytes += hm.StrandedBytes
		out.FreeBytes += hm.FreeBytes
		out.VMs += hm.VMs
	}
	return out, nil
}

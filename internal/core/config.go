// Package core implements the paper's primary contribution: the Siloz
// hypervisor (§5). Siloz computes subarray groups at boot, abstracts them as
// logical NUMA nodes, places each VM's unmediated pages into private
// guest-reserved groups and the host's (plus mediated VM pages) into
// host-reserved groups, and protects extended page tables with guard rows or
// hardware integrity — preventing inter-VM Rowhammer end to end.
//
// The same package provides the unmodified Linux/KVM baseline hypervisor
// the paper evaluates against: identical machinery with subarray group
// isolation disabled, so security and performance experiments can compare
// the two configurations directly.
package core

import (
	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

// Mode selects the hypervisor configuration under test.
type Mode int

const (
	// ModeSiloz enables subarray group isolation and EPT protection.
	ModeSiloz Mode = iota
	// ModeBaseline is the unmodified Linux/KVM baseline: per-socket
	// nodes, no subarray awareness, unprotected EPTs.
	ModeBaseline
)

func (m Mode) String() string {
	if m == ModeSiloz {
		return "siloz"
	}
	return "baseline"
}

// EPT row-group block parameters (§5.4): a contiguous block of b row groups
// is reserved in a designated host subarray group; the row group at offset
// o holds EPT pages and the remaining b-1 row groups are guard rows.
const (
	// EPTBlockRowGroups is the paper's b = 32.
	EPTBlockRowGroups = 32
	// EPTRowGroupOffset is the paper's o = 12.
	EPTRowGroupOffset = 12
)

// Config parameterizes a boot.
type Config struct {
	// Geometry describes the server; zero value means geometry.Default().
	Geometry geometry.Geometry
	// Profiles are the DIMM disturbance profiles, assigned round-robin
	// to slots; nil means the six Table 3 evaluation DIMMs.
	Profiles []dram.Profile
	// EPTProtection selects EPT integrity for Siloz (§5.4). The
	// baseline always runs unprotected.
	EPTProtection ept.IntegrityMode
	// Repairs optionally models repaired rows (§6); Siloz offlines pages
	// of inter-subarray repairs.
	Repairs *addr.RepairTable
	// Sibling optionally names a booted hypervisor of the same box. Its
	// physical-to-media mapping is fixed by the BIOS (§2.4), so the boot
	// takes the sibling's mapper, subarray layout and DRAM row arena by
	// reference instead of computing its own; only the nodes, allocators,
	// registry and DRAM modules are this host's. A sibling of another
	// geometry or other row address transforms fails the boot.
	Sibling *Hypervisor
	// MediatedAccessLimit caps a VM's mediated accesses per refresh
	// window — the §5.1 rate-limit closing the theoretical "confused
	// deputy" vector, where a guest tricks host software into hammering
	// host rows through VM exits. 0 uses DefaultMediatedAccessLimit;
	// negative disables the limiter (for demonstrating the threat).
	MediatedAccessLimit int
	// Mitigation selects the Rowhammer defense this boot deploys. The
	// zero value (KindNone) runs undefended. Activation-plane kinds
	// (PARA, Silver Bullet) attach one instance per DRAM module;
	// allocation-plane kinds constrain placement: KindCATT reserves guard
	// bands around each VM's RAM extents at create time, KindSiloz
	// requires ModeSiloz (BootMitigated derives the mode automatically).
	Mitigation mitigation.Spec
}

// DefaultMediatedAccessLimit keeps per-window host accesses on a guest's
// behalf far below any Rowhammer threshold.
const DefaultMediatedAccessLimit = 2000

func (c *Config) normalize() error {
	if c.Geometry == (geometry.Geometry{}) {
		c.Geometry = geometry.Default()
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.Profiles == nil {
		c.Profiles = dram.EvaluationProfiles()
	}
	if c.MediatedAccessLimit == 0 {
		c.MediatedAccessLimit = DefaultMediatedAccessLimit
	}
	return c.Mitigation.Validate()
}

// transforms returns the union of the row address transforms of the DIMMs a
// boot installs (slot d of each socket takes Profiles[d%len(Profiles)]): the
// box's worst case, which its subarray layout and guard rows cover.
func (c *Config) transforms() addr.TransformConfig {
	var t addr.TransformConfig
	for d := 0; d < c.Geometry.DIMMsPerSocket; d++ {
		p := c.Profiles[d%len(c.Profiles)].Transforms
		t.Mirroring = t.Mirroring || p.Mirroring
		t.Inversion = t.Inversion || p.Inversion
		t.Scrambling = t.Scrambling || p.Scrambling
	}
	return t
}

// Process models the credentials of a requesting process: its control group
// membership and KVM privilege (§5.3: guest-reserved node allocations
// require both).
type Process struct {
	// CGroup is the control group the process belongs to.
	CGroup string
	// KVMPrivileged reports whether the process holds KVM privileges.
	KVMPrivileged bool
}

// KVMProcess is the privileged launcher — the "kvm" control group with KVM
// privilege — that tools, attack campaigns and experiments create VMs as.
func KVMProcess() Process { return Process{CGroup: "kvm", KVMPrivileged: true} }

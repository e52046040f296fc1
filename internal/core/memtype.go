package core

import (
	"fmt"

	"repro/internal/geometry"
)

// RegionType classifies guest memory regions by their QEMU memory type,
// which determines mediation and therefore placement (§5.1): a VM can
// trivially hammer memory it accesses without VM exits, so every
// unmediated region must live in the VM's own subarray groups; mediated
// regions exit into the hypervisor, which can rate-limit, so they live in
// host-reserved groups.
type RegionType int

const (
	// RegionRAM is ordinary guest RAM: unmediated reads and writes.
	RegionRAM RegionType = iota
	// RegionROM is guest ROM: reads are unmediated (hammerable!), writes
	// trap. It must therefore be guest-placed despite being read-only.
	RegionROM
	// RegionMMIO is emulated device MMIO: accesses exit to the
	// hypervisor; host-placed.
	RegionMMIO
	// RegionVirtio is a paravirtual I/O ring: DMAs are performed by the
	// host on the guest's behalf (§5.1), so the backing pages are
	// host-placed and cannot be hammered by the guest.
	RegionVirtio
)

func (t RegionType) String() string {
	switch t {
	case RegionRAM:
		return "ram"
	case RegionROM:
		return "rom"
	case RegionMMIO:
		return "mmio"
	case RegionVirtio:
		return "virtio"
	}
	return "invalid"
}

// Unmediated reports whether some guest access type reaches the region's
// DRAM without a VM exit (§5.1's placement criterion).
func (t RegionType) Unmediated() bool {
	return t == RegionRAM || t == RegionROM
}

// Region describes one extra guest memory region (beyond RAM).
type Region struct {
	// Name labels the region (e.g. "bios", "virtio-net").
	Name string
	// Type is the QEMU memory type.
	Type RegionType
	// Bytes is the region size; must be 4 KiB aligned.
	Bytes uint64
}

// ROMBase is the guest physical base of unmediated non-RAM regions; it sits
// between RAM (at 0) and the mediated window (at MediatedBase).
const ROMBase = uint64(1) << 39

// regionInfo tracks a materialized region.
type regionInfo struct {
	Region
	gpa      uint64
	frameRun // the 4 KiB HPAs in GPA order and the node that owns them
}

// allocRegions materializes spec.Regions: unmediated regions draw 4 KiB
// pages from the VM's guest-reserved nodes, mediated ones from the host
// node. ROMBase hosts unmediated regions; MediatedBase hosts the rest.
func (h *Hypervisor) allocRegions(vm *VM) error {
	unmediatedGPA := ROMBase
	mediatedGPA := MediatedBase + uint64(len(vm.mediated))*geometry.PageSize4K
	for _, r := range vm.spec.Regions {
		if r.Bytes == 0 || r.Bytes%geometry.PageSize4K != 0 {
			return fmt.Errorf("core: region %q size %d not 4 KiB aligned", r.Name, r.Bytes)
		}
		n := int(r.Bytes / geometry.PageSize4K)
		info := regionInfo{Region: r}
		var placed frameTxn // stays zero for a mediated region: its rollback is a no-op
		if r.Type.Unmediated() {
			// Guest-placed: from the VM's own domain under Siloz; the
			// baseline has no such constraint.
			placed = h.sourceFrames(vm)
			if err := placed.take(0, n, true); err != nil {
				return fmt.Errorf("core: region %q: %w", r.Name, err)
			}
			info.frameRun = placed.runs[0]
			info.gpa = unmediatedGPA
			unmediatedGPA += r.Bytes
		} else {
			host, a, err := h.hostNode(vm.spec.Socket)
			if err != nil {
				return err
			}
			pages, err := a.AllocPages(0, n)
			if err != nil {
				return fmt.Errorf("core: region %q: %w", r.Name, err)
			}
			info.frameRun = frameRun{node: host.ID, pages: pages}
			info.gpa = mediatedGPA
			mediatedGPA += r.Bytes
		}
		// ROM is mapped read-only: guest writes raise EPT violations and
		// are emulated by the hypervisor (§5.1).
		if _, err := vm.tables.MapRun(info.gpa, info.pages, geometry.PageSize4K, r.Type != RegionROM); err != nil {
			placed.rollback()
			return err
		}
		vm.regions = append(vm.regions, info)
	}
	return nil
}

// Regions returns the VM's materialized extra regions.
func (vm *VM) Regions() []Region {
	out := make([]Region, len(vm.regions))
	for i, r := range vm.regions {
		out[i] = r.Region
	}
	return out
}

// RegionGPA returns the guest physical base of a named region.
func (vm *VM) RegionGPA(name string) (uint64, error) {
	for _, r := range vm.regions {
		if r.Name == name {
			return r.gpa, nil
		}
	}
	return 0, fmt.Errorf("core: VM %q has no region %q", vm.spec.Name, name)
}

// RegionPages returns the backing HPAs of a named region.
func (vm *VM) RegionPages(name string) ([]uint64, error) {
	for _, r := range vm.regions {
		if r.Name == name {
			out := make([]uint64, len(r.pages))
			copy(out, r.pages)
			return out, nil
		}
	}
	return nil, fmt.Errorf("core: VM %q has no region %q", vm.spec.Name, name)
}

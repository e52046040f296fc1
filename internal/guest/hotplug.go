package guest

// The guest side of memory hotplug: the dual of the balloon driver. Where
// the balloon surrenders the top of guest RAM, hotplug extends it — the
// hypervisor adopts additional subarray-group nodes, scrubs them, and maps
// a new zero-filled 2 MiB-aligned range at the old top of RAM; the kernel
// then raises its usable-memory limit so the new frames become allocatable
// (allocFrame) and mappable (Process.Map). Each successful call is recorded
// as a Bank, mirroring how a real kernel onlines a hot-added memory block
// as a new node.

import (
	"fmt"

	"repro/internal/geometry"
)

// Bank is one hot-added guest memory range: [Start, Start+Bytes).
type Bank struct {
	Start uint64 // GPA of the first hot-added byte
	Bytes uint64
}

// LimitBytes returns the kernel's usable-memory limit: allocations and
// mappings must stay below it. Boot RAM minus the balloon, plus every
// hot-added bank.
func (k *Kernel) LimitBytes() uint64 {
	return k.limit
}

// HotplugBank grows the guest's RAM by addBytes (a positive multiple of
// 2 MiB): the hypervisor hot-adds a scrubbed range at the current top of
// RAM and the kernel onlines it — the usable-memory limit rises, so the new
// frame range is immediately usable by allocFrame and Process.Map. The
// balloon must be fully deflated first (the hypervisor refuses otherwise);
// on any failure the kernel's view is unchanged.
func (k *Kernel) HotplugBank(addBytes uint64) (Bank, error) {
	if addBytes == 0 || addBytes%geometry.PageSize2M != 0 {
		return Bank{}, fmt.Errorf("guest: hotplug size %d must be a positive multiple of 2 MiB", addBytes)
	}
	rep, err := k.vm.Hypervisor().HotplugVM(k.vm.Name(), addBytes)
	if err != nil {
		return Bank{}, err
	}
	// Online the bank: the hot-added range begins at the old top of RAM, so
	// the new limit is simply the grown RAM size (the balloon is empty —
	// the hypervisor refused the hotplug otherwise).
	bank := Bank{Start: rep.BaseGPA, Bytes: rep.AddedBytes}
	k.limit = rep.NewMemoryBytes
	return bank, nil
}

package guest

// The guest side of memory hotplug: the dual of the balloon driver. Where
// the balloon surrenders the top of guest RAM, hotplug extends it — the
// hypervisor's resize (core.ResizeVM, growing past the boot-time
// reservation) adopts additional subarray-group nodes, scrubs them, and maps
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
// balloon must be fully deflated first: it is the top of RAM, which the bank
// would move. The kernel onlines the bank whenever the hypervisor's resize
// took effect (it returned a report), even if an error came with it;
// otherwise the kernel's view is unchanged.
func (k *Kernel) HotplugBank(addBytes uint64) (Bank, error) {
	if addBytes == 0 || addBytes%geometry.PageSize2M != 0 {
		return Bank{}, fmt.Errorf("guest: hotplug size %d must be a positive multiple of 2 MiB", addBytes)
	}
	if k.balloon != nil && k.balloon.bytes > 0 {
		return Bank{}, fmt.Errorf("guest: balloon holds %d bytes; deflate before hot-plugging", k.balloon.bytes)
	}
	mem := k.vm.Spec().MemoryBytes
	rep, err := k.vm.Hypervisor().ResizeVM(k.vm.Name(), mem+addBytes)
	if rep == nil {
		return Bank{}, err
	}
	// Online the bank: the hot-added range begins at the old top of RAM, so
	// the new limit is simply the grown RAM size.
	k.limit = mem + addBytes
	return Bank{Start: mem, Bytes: addBytes}, err
}

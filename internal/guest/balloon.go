package guest

// Balloon is the guest side of memory ballooning (virtio-balloon
// semantics): the driver "inflates" by claiming guest physical frames the
// kernel agrees never to use again, then asks the hypervisor to resize the
// VM below them so the host can unmap, scrub, and reuse the backing
// subarray-group pages — possibly returning whole isolation-domain nodes to
// the admission pool. Deflating reverses the handshake: the hypervisor
// restores backing pages (zeroed; balloon contents are never preserved) and
// the kernel's usable memory grows back.
//
// This driver keeps the protocol simple and deterministic: the balloon is
// always the top `target` bytes of guest RAM, in whole 2 MiB chunks, which
// matches the hypervisor's highest-GPA-first page selection exactly.

import (
	"fmt"

	"repro/internal/geometry"
)

// Balloon is a guest kernel's balloon device.
type Balloon struct {
	k     *Kernel
	bytes uint64 // the balloon's size: it holds [MemoryBytes-bytes, MemoryBytes)
}

// Balloon returns the kernel's balloon device, creating it on first use.
func (k *Kernel) Balloon() *Balloon {
	if k.balloon == nil {
		k.balloon = &Balloon{k: k}
	}
	return k.balloon
}

// SetTarget inflates or deflates the balloon to the given size (a multiple
// of 2 MiB). Inflation requires the surrendered range to be free of live
// kernel allocations: the frame allocator's high-water mark must sit below
// the shrunken limit. The hypervisor resizes the VM to MemoryBytes-target,
// unmapping and reclaiming the surrendered range; once it has, the kernel's
// usable memory is [0, MemoryBytes-target). Deflation restores the range
// (contents zeroed).
func (b *Balloon) SetTarget(target uint64) error {
	k := b.k
	mem := k.vm.Spec().MemoryBytes
	if target%geometry.PageSize2M != 0 {
		return fmt.Errorf("guest: balloon target %d must be a multiple of 2 MiB", target)
	}
	if target > mem {
		return fmt.Errorf("guest: balloon target %d exceeds guest RAM %d", target, mem)
	}
	newLimit := mem - target
	if target > b.bytes && k.nextFrame > newLimit {
		return fmt.Errorf("guest: cannot inflate to %d bytes: guest frames in use up to %#x, new limit %#x",
			target, k.nextFrame, newLimit)
	}
	rep, err := k.vm.Hypervisor().ResizeVM(k.vm.Name(), newLimit)
	if rep == nil {
		return err
	}
	// Commit the guest's view: the balloon owns [newLimit, mem). A report
	// means the resize took effect even if an error came with it.
	k.limit = newLimit
	b.bytes = target
	return err
}

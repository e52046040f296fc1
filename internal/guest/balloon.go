package guest

// Balloon is the guest side of memory ballooning (virtio-balloon
// semantics): the driver "inflates" by claiming guest physical frames the
// kernel agrees never to use again, then tells the hypervisor which GPA
// ranges it surrendered so the host can unmap, scrub, and reuse the backing
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
	k *Kernel
	// pages are the 2 MiB-aligned GPA bases currently pinned in the
	// balloon, ascending.
	pages []uint64
}

// Balloon returns the kernel's balloon device, creating it on first use.
func (k *Kernel) Balloon() *Balloon {
	if k.balloon == nil {
		k.balloon = &Balloon{k: k}
	}
	return k.balloon
}

// TargetBytes returns the balloon's current size.
func (b *Balloon) TargetBytes() uint64 {
	return uint64(len(b.pages)) * geometry.PageSize2M
}

// SetTarget inflates or deflates the balloon to the given size (a multiple
// of 2 MiB). Inflation requires the surrendered range to be free of live
// kernel allocations: the frame allocator's high-water mark must sit below
// the shrunken limit. The surrendered ranges are handed to the hypervisor,
// which unmaps and reclaims them; on success the kernel's usable memory is
// [0, MemoryBytes-target). Deflation restores the range (contents zeroed).
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
	if target > b.TargetBytes() && k.nextFrame > newLimit {
		return fmt.Errorf("guest: cannot inflate to %d bytes: guest frames in use up to %#x, new limit %#x",
			target, k.nextFrame, newLimit)
	}
	if _, err := k.vm.Hypervisor().BalloonVM(k.vm.Name(), target); err != nil {
		return err
	}
	// Commit the guest's view: the balloon owns [newLimit, mem).
	k.limit = newLimit
	b.pages = b.pages[:0]
	for gpa := newLimit; gpa < mem; gpa += geometry.PageSize2M {
		b.pages = append(b.pages, gpa)
	}
	return nil
}

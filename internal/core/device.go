package core

import (
	"fmt"
	"slices"

	"repro/internal/ept"
	"repro/internal/geometry"
)

// Device models a passthrough (SR-IOV) virtual function assigned to a VM
// (§5.1). Its DMAs are translated by an IOMMU whose page tables the
// hypervisor builds to cover exactly the VM's unmediated RAM; under Siloz
// the IOMMU table pages are protected "akin to EPT pages" — allocated from
// the guarded EPT row-group block — because a flipped IOMMU entry would let
// the device DMA (and hammer) outside the guest's subarray groups.
//
// The IOMMU mappings are live state, not a snapshot: every RAM-layout
// change (live migration, a resize's shrink or grow) syncs them inside
// VM.commitLayout, and VM teardown tears them down before the
// frames return to the free pools (scrubbed, as every frame that leaves a
// VM is, so a device's stores and its HammerDMA flips leak to no one). DMA
// writes participate in the dirty-page log (IOMMU dirty-bit harvesting), so
// pre-copy and a cross-host move both see device stores.
//
// The default virtio path needs none of this: the hypervisor performs DMAs
// on the guest's behalf and can rate-limit them (§5.1), which the VM model
// expresses by refusing Hammer on mediated pages.
type Device struct {
	name   string
	vm     *VM
	tables *ept.Tables // IOMMU page tables (IOVA -> HPA)
	// view is the RAM layout the tables' leaves currently hold: the HPA of
	// each mapped 2 MiB page, a GPA prefix. syncLeaves diffs against it.
	view []uint64
}

// AttachDevice creates a passthrough device for a VM, building IOMMU
// mappings IOVA==GPA over the VM's RAM. Table pages are allocated from the
// same pool as EPT pages (GFP_EPT under Siloz with guard-row protection).
// The device is registered with the VM so lifecycle operations keep its
// mappings in sync with the RAM layout.
func (h *Hypervisor) AttachDevice(vm *VM, name string) (*Device, error) {
	if vm.tables == nil {
		return nil, fmt.Errorf("core: VM %q has been destroyed", vm.spec.Name)
	}
	a, err := h.eptAllocatorFor(vm.eptSocket)
	if err != nil {
		return nil, err
	}
	mode := ept.NoProtection
	if h.mode == ModeSiloz {
		mode = h.cfg.EPTProtection
	}
	tables, err := ept.New(h.mem, eptAlloc{a}, mode)
	if err != nil {
		return nil, err
	}
	d := &Device{name: name, vm: vm, tables: tables}
	vm.devMu.Lock()
	vm.devices = append(vm.devices, d)
	vm.devMu.Unlock()
	// The new device's view is empty, so committing the layout the VM
	// already has maps all of it into the device and touches nothing else.
	if err := vm.commitLayout(vm.ram, nil); err != nil {
		d.Detach()
		return nil, err
	}
	return d, nil
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Tables exposes the device's IOMMU page tables (for protection audits).
func (d *Device) Tables() *ept.Tables { return d.tables }

// Detach releases the IOMMU tables and unregisters the device from its VM.
func (d *Device) Detach() {
	vm := d.vm
	vm.devMu.Lock()
	vm.devices = slices.DeleteFunc(vm.devices, func(o *Device) bool { return o == d })
	vm.devMu.Unlock()
	d.detachTables()
}

// detachTables destroys the IOMMU tables without touching the VM's device
// list — VM teardown uses it after clearing the list itself.
func (d *Device) detachTables() {
	if d.tables != nil {
		d.tables.Destroy()
		d.tables = nil
	}
	d.view = nil
}

// translate resolves an IOVA through the IOMMU.
func (d *Device) translate(iova uint64) (uint64, error) {
	if d.tables == nil {
		return 0, fmt.Errorf("core: device %q detached", d.name)
	}
	return d.tables.Translate(iova)
}

// DMAWrite stores data at an IOVA, as the device's unmediated DMA engine
// would. It holds the vCPU gate shared — the hypervisor quiesces DMA across
// stop-the-world windows exactly as it quiesces vCPUs — and every written
// page lands in the VM's dirty log while it is armed.
func (d *Device) DMAWrite(iova uint64, data []byte) error {
	d.vm.pauseMu.RLock()
	defer d.vm.pauseMu.RUnlock()
	return d.dmaIter(iova, len(data), func(hpa uint64, off, n int) error {
		d.vm.noteDMAWrite(iova + uint64(off))
		return d.vm.hv.mem.WritePhys(hpa, data[off:off+n])
	})
}

// DMARead loads len(buf) bytes from an IOVA.
func (d *Device) DMARead(iova uint64, buf []byte) error {
	d.vm.pauseMu.RLock()
	defer d.vm.pauseMu.RUnlock()
	return d.dmaIter(iova, len(buf), func(hpa uint64, off, n int) error {
		return d.vm.hv.mem.ReadPhys(hpa, buf[off:off+n])
	})
}

// dmaIter walks a DMA range in page-bounded pieces.
func (d *Device) dmaIter(iova uint64, n int, fn func(hpa uint64, off, n int) error) error {
	off := 0
	for off < n {
		cur := iova + uint64(off)
		hpa, err := d.translate(cur)
		if err != nil {
			return fmt.Errorf("core: device %q DMA blocked: %w", d.name, err)
		}
		chunk := int(geometry.PageSize2M - cur%geometry.PageSize2M)
		if chunk > n-off {
			chunk = n - off
		}
		if err := fn(hpa, off, chunk); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

// HammerDMA activates the row backing an IOVA repeatedly — DMA-based
// Rowhammer (GuardION-style). The IOMMU confines it to the VM's own
// subarray groups exactly as EPTs confine CPU-side hammering, and the vCPU
// gate confines it in time: no DMA activation can land inside a
// stop-the-world window where the frame may be changing owners.
func (d *Device) HammerDMA(iova uint64, count int, openNs int64) error {
	d.vm.pauseMu.RLock()
	defer d.vm.pauseMu.RUnlock()
	hpa, err := d.translate(iova)
	if err != nil {
		return fmt.Errorf("core: device %q DMA blocked: %w", d.name, err)
	}
	return d.vm.hv.mem.ActivatePhys(hpa, count, openNs)
}

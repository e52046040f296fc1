package core

import "fmt"

// CPU affinity (§5.2, §7): host-reserved nodes carry their socket's cores,
// and the evaluation pins each VM's vCPUs to dedicated logical cores of its
// home socket (CPU affinity [99]). The ledger tracks exclusive pinning so
// tenants do not share logical cores.

// PinVCPUs assigns the VM's vCPUs to free logical cores of its socket,
// returning the chosen cores. Pinning is exclusive; destroying the VM
// releases its cores.
func (h *Hypervisor) PinVCPUs(vm *VM) ([]int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if vm.pinned != nil {
		return vm.pinned, nil
	}
	if vm.spec.VCPUs <= 0 {
		return nil, fmt.Errorf("core: VM %q has no vCPUs to pin", vm.spec.Name)
	}
	g := h.cfg.Geometry
	var free []int
	for c := vm.spec.Socket * g.CoresPerSocket; c < (vm.spec.Socket+1)*g.CoresPerSocket; c++ {
		if h.coreOwner[c] == nil {
			free = append(free, c)
		}
	}
	if len(free) < vm.spec.VCPUs {
		return nil, fmt.Errorf("core: socket %d has %d free cores, VM %q needs %d",
			vm.spec.Socket, len(free), vm.spec.Name, vm.spec.VCPUs)
	}
	cores := free[:vm.spec.VCPUs]
	for _, c := range cores {
		h.coreOwner[c] = vm
	}
	vm.pinned = append([]int(nil), cores...)
	return vm.pinned, nil
}

// releaseCores frees a VM's core pinning. Caller holds h.mu.
func (vm *VM) releaseCores() {
	if vm.pinned == nil {
		return
	}
	for _, c := range vm.pinned {
		vm.hv.coreOwner[c] = nil
	}
	vm.pinned = nil
}

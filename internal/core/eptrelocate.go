package core

import "fmt"

// EPT-table relocation (§5.4 applied to live migration): migration and the
// resize facade move guest data between sockets, but a VM's EPT tables stay
// where CreateVM placed them — the boot socket's guard-protected EPT block.
// Relocation rebuilds the hierarchy from the destination socket's GFP_EPT
// allocator under the pause gate, so the guard-block placement argument
// holds for the socket the guest actually lives on, and so the source
// socket's EPT row group can drain for defragmentation. Two paths run it: a
// cross-socket MigrateVM, and relocateIfStranded after a ResizeVM leaves
// every node on a socket the tables do not live on.

// relocateTables rebuilds vm's EPT hierarchy from the destination socket's
// EPT allocator and retargets the VM's EPT-residency bookkeeping. The
// caller holds the VM paused and the lifecycle latch.
func (h *Hypervisor) relocateTables(vm *VM, socket int) (int, error) {
	if vm.tables == nil {
		return 0, fmt.Errorf("core: VM %q has been destroyed", vm.spec.Name)
	}
	newA, err := h.eptAllocatorFor(socket)
	if err != nil {
		return 0, err
	}
	moved, err := vm.tables.Relocate(eptAlloc{newA})
	if err != nil {
		return 0, fmt.Errorf("core: relocating EPT tables of VM %q to socket %d: %w", vm.spec.Name, socket, err)
	}
	vm.eptSocket = socket
	vm.InvalidateTLB()
	return moved, nil
}

// relocateIfStranded relocates vm's EPT tables when every node backing the
// VM sits on one socket that is not the tables' current home — the state a
// resize can leave behind when it drops a VM's last remote (or last home-
// socket) node. Safe no-op otherwise. The caller holds the lifecycle latch
// but not the pause gate.
func (h *Hypervisor) relocateIfStranded(vm *VM) error {
	socket, ok := socketOfNodes(vm.nodes)
	if h.mode != ModeSiloz || !ok || socket == vm.eptSocket {
		return nil // in place, or the VM spans sockets: no single home to follow
	}
	vm.Pause()
	defer vm.Resume()
	_, err := h.relocateTables(vm, socket)
	return err
}

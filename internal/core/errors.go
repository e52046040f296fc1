package core

import "errors"

// Typed sentinel errors for the VM lifecycle paths (create, resize,
// migrate, move). Callers branch on these with errors.Is instead
// of matching message strings; the wrapping fmt.Errorf sites add the VM name
// and operation detail.
var (
	// ErrVMNotFound reports an operation against a VM name the hypervisor
	// does not know (never created, or already destroyed).
	ErrVMNotFound = errors.New("core: VM not found")

	// ErrResizeBusy reports that a VM's lifecycle latch is held: at most one
	// resize, live migration or cross-host move may be in flight per VM at a
	// time, and a second operation is refused rather than interleaved.
	ErrResizeBusy = errors.New("core: VM lifecycle operation already in flight")

	// ErrCapacityExhausted reports that guest-reserved capacity ran out: no
	// unowned subarray-group node (or none reachable under the VM's socket
	// policy) can supply the requested huge pages. It is the admission
	// refusal the resize facade and the hotplug experiment measure.
	ErrCapacityExhausted = errors.New("core: guest-reserved capacity exhausted")
)

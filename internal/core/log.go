package core

import "fmt"

// The hypervisor emits a structured, dmesg-style event log when Config.Log
// is set. Events cover the boot sequence (§5.3), VM lifecycle, and security-
// relevant actions (offlining, throttling), so an operator can audit what
// the isolation machinery did.

// logf writes one event, stamped with its sequence number since boot — never
// a wall-clock reading, so the same operations log the same bytes.
// Serialized: lifecycle operations and a running migration may log
// concurrently.
func (h *Hypervisor) logf(format string, args ...any) {
	if h.log == nil {
		return
	}
	h.logMu.Lock()
	defer h.logMu.Unlock()
	h.logSeq++
	fmt.Fprintf(h.log, "[%6d] siloz: %s\n", h.logSeq, fmt.Sprintf(format, args...))
}

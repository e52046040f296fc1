package migrate

import (
	"fmt"

	"repro/internal/core"
)

// AuditIsolation reports the first violation of the hypervisor's isolation
// invariant set (core.Hypervisor.AuditIsolation — domain exclusivity, no
// doubly-owned frame, table pages in the current EPT socket's pool,
// mediated pages host-reserved) as an error. The Engine runs it between
// every pre-copy round, so a migration can never pass through a state where
// the invariants are violated.
func AuditIsolation(h *core.Hypervisor) error {
	if bad := h.AuditIsolation(); len(bad) > 0 {
		return fmt.Errorf("migrate: %s", bad[0])
	}
	return nil
}

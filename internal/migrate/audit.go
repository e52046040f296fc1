package migrate

import (
	"fmt"

	"repro/internal/core"
)

// AuditIsolation reports the first finding of the hypervisor's one invariant
// set (core.Hypervisor.Audit: isolation, table placement and accounting, a
// migration's in-flight frames counted as held) as an error. The Engine runs
// it around every shrink and move and at every pre-copy round boundary, so
// a migration can never pass through a state where an invariant is violated.
func AuditIsolation(h *core.Hypervisor) error {
	if bad := h.Audit(); len(bad) > 0 {
		return fmt.Errorf("migrate: %s", bad[0])
	}
	return nil
}

package fleet

import (
	"fmt"

	"repro/internal/migrate"
)

// AuditIsolation verifies the fleet-wide invariants:
//
//  1. every host passes the one single-host invariant set, core's Audit
//     (isolation, table placement, offlined ranges and allocator
//     conservation) — migrate.AuditIsolation per shard;
//  2. no VM name is live on two hosts, except a VM mid-move — and a
//     mid-move VM's copies are bounded to exactly its recorded {source,
//     destination} pair. A third live copy, or a copy on a host outside
//     the move window, is double ownership, not a transient;
//  3. the routing table matches reality: every routed VM exists on its
//     recorded host; every live VM is routed; a mid-move VM routes to its
//     source (before commit) or destination (after), never elsewhere.
//
// Call it while no op runs or from a move probe; a mid-op audit outside
// those points can observe legitimate transients.
func (c *Cluster) AuditIsolation() error {
	c.mu.Lock()
	vmHost := make(map[string]string, len(c.vmHost))
	for k, v := range c.vmHost {
		vmHost[k] = v
	}
	moving := make(map[string]moveWindow, len(c.moving))
	for k, v := range c.moving {
		moving[k] = v
	}
	c.mu.Unlock()

	liveOn := map[string][]string{} // vm -> every host it is live on, boot order
	for _, h := range c.hosts {
		if err := migrate.AuditIsolation(h.Hypervisor()); err != nil {
			return fmt.Errorf("fleet: host %s: %w", h.Name(), err)
		}
		for _, vm := range h.Hypervisor().VMs() {
			name := vm.Name()
			liveOn[name] = append(liveOn[name], h.Name())
			if _, routed := vmHost[name]; !routed {
				return fmt.Errorf("fleet: VM %q live on %s but not in the routing table", name, h.Name())
			}
		}
	}

	for name, hosts := range liveOn {
		w, mid := moving[name]
		if !mid {
			if len(hosts) > 1 {
				return fmt.Errorf("fleet: VM %q live on multiple hosts %v with no move in flight", name, hosts)
			}
			continue
		}
		// Mid-move: every live copy must sit on the move window's source or
		// destination. Two copies (one on each) is the legitimate
		// double-ownership window; anything else is a containment failure.
		for _, hn := range hosts {
			if hn != w.Src && hn != w.Dst {
				return fmt.Errorf("fleet: mid-move VM %q live on %s outside its move window %s->%s",
					name, hn, w.Src, w.Dst)
			}
		}
	}

	for name, hostName := range vmHost {
		h, ok := c.byName[hostName]
		if !ok {
			return fmt.Errorf("fleet: VM %q routed to unknown host %q", name, hostName)
		}
		if w, mid := moving[name]; mid {
			// Routing may flip to the destination before the source copy is
			// destroyed, but it must never leave the move window.
			if hostName != w.Src && hostName != w.Dst {
				return fmt.Errorf("fleet: mid-move VM %q routed to %s outside its move window %s->%s",
					name, hostName, w.Src, w.Dst)
			}
			continue
		}
		if _, ok := h.Hypervisor().VM(name); !ok {
			return fmt.Errorf("fleet: VM %q routed to %s but not live there (live on %v)",
				name, hostName, liveOn[name])
		}
	}
	return nil
}

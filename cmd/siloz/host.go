package main

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/numa"
)

// topologyCmd boots Siloz on a simulated server and dumps the resulting DRAM
// isolation topology: subarray groups, logical NUMA nodes, the EPT row-group
// block, and offlined guard ranges (§5.2-5.4).
func topologyCmd(inv *invocation, args []string) error {
	subarrayRows := inv.fs.Int("subarray-rows", 0, "rows per subarray boot parameter (0 = platform default of 1024)")
	baseline := inv.fs.Bool("baseline", false, "boot the unmodified Linux/KVM baseline instead of Siloz")
	verbose := inv.fs.Bool("verbose", false, "list every logical node")
	if err := inv.parse(args); err != nil {
		return err
	}

	mode := core.ModeSiloz
	if *baseline {
		mode = core.ModeBaseline
	}
	cfg := core.Config{EPTProtection: ept.GuardRows}
	if n := *subarrayRows; n != 0 {
		cfg.Geometry = geometry.Default().WithSubarraySize(n)
		if n > 0 && n <= cfg.Geometry.RowsPerBank {
			// A bank holds whole subarrays and whole managed groups, which
			// round up to at most the next power of two of at least 512
			// rows: the platform's bank keeps the largest multiple of both
			// (128 000 rows for 640-row subarrays, all of it for a power
			// of two).
			group := max(1<<bits.Len(uint(n-1)), 512)
			unit := group
			for unit%n != 0 {
				unit += group
			}
			cfg.Geometry.RowsPerBank -= cfg.Geometry.RowsPerBank % unit
		}
	}
	h, err := core.Boot(cfg, mode)
	if err != nil {
		return err
	}

	out := inv.stdout
	g := h.Layout().Geometry()
	fmt.Fprintf(out, "server:          %s\n", g)
	fmt.Fprintf(out, "mode:            %s\n", h.Mode())
	fmt.Fprintf(out, "managed group:   %d rows/subarray -> %.2f GiB subarray groups\n",
		h.Layout().RowsPerGroup(), float64(h.Layout().GroupBytes())/float64(geometry.GiB))
	fmt.Fprintf(out, "groups/socket:   %d\n", h.Layout().GroupsPerSocket())
	if l := h.Layout(); l.Artificial() {
		// A power-of-two size is artificial only below the block its
		// transforms reorder rows within, which is then the managed size.
		reason := "non-power-of-two subarray size"
		if rows := g.RowsPerSubarray; rows&(rows-1) == 0 {
			reason = fmt.Sprintf("%d-row subarrays below the transforms' %d-row block", rows, l.RowsPerGroup())
		}
		fmt.Fprintf(out, "artificial:      yes (%s, §6)\n", reason)
	}

	topo := h.Topology()
	counts := map[numa.NodeKind]int{}
	bytes := map[numa.NodeKind]uint64{}
	for _, n := range topo.Nodes() {
		counts[n.Kind]++
		bytes[n.Kind] += n.Bytes()
	}
	fmt.Fprintf(out, "logical nodes:   %d total (%d host, %d guest, %d ept)\n",
		len(topo.Nodes()), counts[numa.HostReserved], counts[numa.GuestReserved], counts[numa.EPTReserved])
	for _, k := range []numa.NodeKind{numa.HostReserved, numa.GuestReserved, numa.EPTReserved} {
		if counts[k] > 0 {
			fmt.Fprintf(out, "  %-6s %4d nodes  %10.3f GiB\n", k, counts[k], float64(bytes[k])/float64(geometry.GiB))
		}
	}
	var offlined uint64
	for _, r := range h.OfflinedRanges() {
		offlined += r.Bytes()
	}
	fmt.Fprintf(out, "offlined:        %.3f MiB (%.4f%% of DRAM) for EPT guard rows and isolation hazards\n",
		float64(offlined)/float64(geometry.MiB), 100*float64(offlined)/float64(g.TotalBytes()))

	if *verbose {
		fmt.Fprintln(out)
		fmt.Fprintf(out, "%-5s %-6s %-7s %-8s %-10s ranges\n", "node", "kind", "socket", "groups", "bytes")
		for _, n := range topo.Nodes() {
			fmt.Fprintf(out, "%-5d %-6s %-7d %-8d %-10d", n.ID, n.Kind, n.Socket, len(n.Groups), n.Bytes())
			for i, r := range n.Ranges {
				if i == 4 {
					fmt.Fprintf(out, " ... (%d more)", len(n.Ranges)-4)
					break
				}
				fmt.Fprintf(out, " %v", r)
			}
			fmt.Fprintln(out)
		}
	}
	return nil
}

// auditCmd boots a populated system, stresses it, and runs the hypervisor's
// fsck-style invariant audit plus a node-statistics report — the operational
// health check an operator would run against a Siloz host. It opens with a
// record of the boot, creates and pins it performed, one line per operation
// stamped with its sequence number (never a clock reading, so two runs print
// the same bytes).
func auditCmd(inv *invocation, args []string) error {
	tenants := inv.fs.Int("tenants", 4, "tenant VMs to create")
	vmGiB := inv.fs.Int("vm-gib", 3, "memory per tenant in GiB")
	hammer := inv.fs.Bool("hammer", true, "hammer from every tenant before auditing")
	if err := inv.parse(args); err != nil {
		return err
	}
	if err := inv.atLeast("tenants", *tenants, 0); err != nil {
		return err
	}
	if err := inv.atLeast("vm-gib", *vmGiB, 1); err != nil {
		return err
	}

	out := inv.stdout
	seq := 0
	event := func(format string, args ...any) {
		seq++
		fmt.Fprintf(out, "[%6d] siloz: %s\n", seq, fmt.Sprintf(format, args...))
	}
	h, err := core.Boot(core.Config{
		Profiles:      []dram.Profile{dram.ProfileD()},
		EPTProtection: ept.GuardRows,
	}, core.ModeSiloz)
	if err != nil {
		return err
	}
	var offlined uint64
	for _, r := range h.OfflinedRanges() {
		offlined += r.Bytes()
	}
	event("booting %s on %s", h.Mode(), h.Layout().Geometry())
	event("boot complete: %d logical nodes (%d rows/group, %.2f GiB groups), %d bytes offlined",
		len(h.Topology().Nodes()), h.Layout().RowsPerGroup(),
		float64(h.Layout().GroupBytes())/float64(geometry.GiB), offlined)
	proc := core.KVMProcess()
	for i := 0; i < *tenants; i++ {
		vm, err := h.CreateVM(proc, core.VMSpec{
			Name:   fmt.Sprintf("tenant%d", i),
			Socket: i % 2, MemoryBytes: uint64(*vmGiB) * geometry.GiB,
			VCPUs: 4, MediatedBytes: 64 * geometry.KiB,
		})
		if err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
		nodes := make([]int, len(vm.Nodes()))
		for j, n := range vm.Nodes() {
			nodes[j] = n.ID
		}
		event("created VM %q: %d MiB RAM on nodes %v, %d EPT pages, %d mediated pages",
			vm.Name(), vm.Spec().MemoryBytes>>20, nodes, len(vm.Tables().Pages()), len(vm.MediatedPages()))
		cores, err := h.PinVCPUs(vm)
		if err != nil {
			return fmt.Errorf("pinning tenant %d: %w", i, err)
		}
		event("pinned VM %q vCPUs to cores %v", vm.Name(), cores)
		if *hammer {
			if err := vm.Hammer(0, 20_000, 0); err != nil {
				return fmt.Errorf("hammering from tenant %d: %w", i, err)
			}
		}
	}

	info, err := h.RefreshMemInfo()
	if err != nil {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, info.Render())

	fmt.Fprintln(out)
	if bad := h.Audit(); len(bad) != 0 {
		fmt.Fprintln(out, "AUDIT FAILED:")
		for _, b := range bad {
			fmt.Fprintln(out, "  -", b)
		}
		return errNegative
	}
	fmt.Fprintf(out, "audit: all invariants hold across %d VMs (%d flips recorded, all contained)\n",
		*tenants, len(h.Memory().Flips()))
	return nil
}

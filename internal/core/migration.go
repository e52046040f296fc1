package core

// Live pre-copy migration of a running VM's guest pages between logical
// NUMA nodes (subarray groups). Siloz's exclusive-reservation model wastes
// capacity to fragmentation: a VM needs whole unowned subarray groups on its
// home socket, so a socket can refuse a VM while the machine as a whole has
// plenty of free groups (§8.1). The migration engine recovers that capacity
// by moving a victim VM's pages to free groups elsewhere — without stopping
// the guest for more than the final stop-and-copy window, and without ever
// letting two tenants' domains overlap:
//
//   1. Adopt the destination nodes into the VM's control group (Expand).
//      Exclusive ownership now covers source and destination, so the
//      widened domain still overlaps no other tenant.
//   2. Arm EPT write-protection dirty logging and copy all pages while the
//      guest keeps running; re-copy dirtied pages each round until the
//      dirty set converges (or a round/shrink budget expires).
//   3. Pause the guest, copy the residual dirty set and commit the
//      destination layout (layout.go): every EPT leaf and IOMMU entry
//      remapped to its destination frame, the TLB flushed — the measured
//      downtime. The commit is all or nothing; until it succeeds every
//      failure aborts back onto the source frames.
//   4. Still paused: relocate the EPT tables into the destination socket's
//      guard-protected EPT block when the migration crossed sockets (§5.4
//      demands the tables live on the socket whose block protects them),
//      then vacate the source pages — scrub, free, and shrink the control
//      group off the drained source nodes. When the guest resumes it can
//      only touch destination frames, and the vacated groups — including
//      the source EPT row group's pages — are free for the next reservation.
//
// Mediated pages are host-reserved and never move.

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/alloc"
	"repro/internal/geometry"
	"repro/internal/numa"
)

// MigrateOptions tunes the pre-copy engine. The zero value gives defaults.
type MigrateOptions struct {
	// MaxRounds caps pre-copy rounds before forcing stop-and-copy.
	MaxRounds int
	// StopPages: when a round ends with at most this many dirty pages, the
	// engine proceeds to stop-and-copy.
	StopPages int
	// GuestStep, if set, is the caller's per-round step: it runs after each
	// round's copy and before the dirty log is drained — deterministic tests
	// and experiments drive guest writes here instead of racing real
	// goroutines against the engine.
	GuestStep func(round int) error
}

// minShrinkRatio: if a round leaves at least this fraction of the previous
// round's dirty set dirty again, pre-copy is not converging and the engine
// stops early.
const minShrinkRatio = 0.9

func (o *MigrateOptions) normalize() {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 16
	}
	if o.StopPages <= 0 {
		o.StopPages = 8
	}
}

// MigrateRound records one pre-copy round.
type MigrateRound struct {
	Round       int
	PagesCopied int    // pages processed this round
	BytesCopied uint64 // modelled transfer: 2 MiB per page copied whole (see precopy)
	DirtyAfter  int    // pages the guest dirtied while the round ran
}

// MigrateReport summarizes a completed migration.
type MigrateReport struct {
	VM          string
	SourceNodes []int
	DestNodes   []int
	PagesTotal  int // guest RAM pages (2 MiB)

	Rounds      []MigrateRound
	PagesCopied int    // page copies across all rounds + stop-and-copy; round 0 visits every resident page
	BytesCopied uint64 // total bytes moved

	DowntimePages int    // pages copied with the guest paused
	DowntimeBytes uint64 // bytes moved with the guest paused
	Converged     bool   // dirty set shrank below StopPages

	// EPTRelocatedPages counts table pages rebuilt on the destination
	// socket's EPT pool (zero for same-socket migrations); the matching
	// EPTReclaimedBytes returned to the source socket's pool.
	EPTRelocatedPages int
	EPTReclaimedBytes uint64
}

// latch is acquire for the operations that run without h.mu: the latch alone
// keeps every other layout operation — and a destroy — off the VM meanwhile.
func (h *Hypervisor) latch(name, op string) (*VM, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.acquire(name, op)
}

// unlatch drops the latch a latch call took.
func (h *Hypervisor) unlatch(vm *VM) {
	h.mu.Lock()
	vm.releaseLifecycle()
	h.mu.Unlock()
}

// precopy is the one pre-copy engine: steps 2 and 3 of the header up to the
// commit. Same-host migration and the source side of a cross-host move differ
// only in where copyPage puts resident page p; it makes the destination page
// equal the source page, row to row (dram.Memory.CopyPhys), and reports
// whether the source held a nonzero byte. Round 0 visits every resident page,
// later rounds the pages the guest dirtied. A copy is charged as a whole page
// (2 MiB) when the source holds data or when the engine has written that
// destination page before in this migration (the guest may have re-zeroed it,
// and the destination must follow), and as nothing otherwise: rows the source
// never materialized (or that were scrubbed) are not moved and materialize
// nothing at the destination, which keeps a migration's cost proportional to
// the data a guest holds — its own stores, DMA and the bits DRAM flipped — not
// to its address space.
//
// What a copy saw is only ever a snapshot. That is safe because every guest or
// DMA store that lands after it is in the dirty log, so a later round or the
// paused residual copy looks at the page again; and vacate scrubs every
// source frame before it is freed, whatever the copy saw in it.
//
// On success the guest is PAUSED with logging still armed and rep holds the
// rounds and totals; on failure it runs on its source frames with logging
// disarmed. Caller holds the lifecycle latch.
func (vm *VM) precopy(ctx context.Context, opt MigrateOptions, rep *MigrateReport, copyPage func(p int) (nonzero bool, err error)) (err error) {
	opt.normalize()
	if err := vm.StartDirtyTracking(); err != nil {
		return err
	}
	paused := false
	defer func() {
		if err != nil {
			if paused {
				vm.Resume()
			}
			_ = vm.StopDirtyTracking()
		}
	}()
	written := make([]bool, len(vm.ram)) // destination pages the engine has written
	copyAll := func(pages []int) (bytes uint64, err error) {
		for _, p := range pages {
			nonzero, err := copyPage(p)
			if err != nil {
				return bytes, err
			}
			if nonzero || written[p] {
				written[p] = true
				bytes += geometry.PageSize2M
			}
		}
		return bytes, nil
	}

	pending, last := make([]int, len(vm.ram)), false
	for p := range pending {
		pending[p] = p
	}
	for round := 0; ; round++ {
		// Checked before every round and once more before the pause, which is
		// the commitment point: a cancellation arriving later is ignored,
		// because the caller's commit must run to completion either way.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: migration of VM %q aborted: %w", vm.spec.Name, err)
		}
		if last {
			break
		}
		bytes, err := copyAll(pending)
		if err != nil {
			return err
		}
		if opt.GuestStep != nil {
			if err := opt.GuestStep(round); err != nil {
				return fmt.Errorf("core: migration guest step: %w", err)
			}
		}
		dirtyGPAs, err := vm.TakeDirty()
		if err != nil {
			return err
		}
		rr := MigrateRound{Round: round, PagesCopied: len(pending), BytesCopied: bytes, DirtyAfter: len(dirtyGPAs)}
		rep.Rounds = append(rep.Rounds, rr)
		rep.PagesCopied += rr.PagesCopied
		rep.BytesCopied += bytes
		vm.hv.probe(Event{Kind: ProbeMigrateRound, VM: vm, Round: rr})
		pending = pagesOf(dirtyGPAs, nil)
		// Stop when the dirty set is small enough, when the round budget is
		// spent, or when it is not shrinking and more rounds are wasted work.
		rep.Converged = len(pending) <= opt.StopPages
		last = rep.Converged || round+1 >= opt.MaxRounds ||
			float64(len(pending)) >= minShrinkRatio*float64(rr.PagesCopied)
	}

	// The guest is paused: stores block on the vCPU gate, so the residual
	// dirty set is final. It is almost always empty.
	vm.Pause()
	paused = true
	residual, err := vm.TakeDirty()
	if err != nil {
		return err
	}
	if len(residual) > 0 { // merge into pending in place, ascending
		pending = pagesOf(residual, pending)
		slices.Sort(pending)
		pending = slices.Compact(pending)
	}
	if rep.DowntimeBytes, err = copyAll(pending); err != nil {
		return err
	}
	rep.DowntimePages = len(pending)
	rep.PagesCopied += len(pending)
	rep.BytesCopied += rep.DowntimeBytes
	return nil
}

// pagesOf appends the 2 MiB page index of each GPA to pages.
func pagesOf(gpas []uint64, pages []int) []int {
	pages = slices.Grow(pages, len(gpas))
	for _, gpa := range gpas {
		pages = append(pages, int(gpa/geometry.PageSize2M))
	}
	return pages
}

// MigrateVM live-migrates a VM's unmediated pages (RAM and guest-placed
// regions) onto the given destination nodes using iterative pre-copy. On
// error or context cancellation before the final stop-and-copy the VM is
// rolled back intact on its source nodes. The latch refuses a destroy (or any
// other layout operation) for as long as the migration runs.
func (h *Hypervisor) MigrateVM(ctx context.Context, name string, destNodeIDs []int, opt MigrateOptions) (*MigrateReport, error) {
	vm, err := h.latch(name, "live migration")
	if err != nil {
		return nil, err
	}
	defer h.unlatch(vm)
	dests, err := h.validateMigrationDests(vm, destNodeIDs)
	if err != nil {
		return nil, err
	}

	srcRAM := vm.ram
	srcNodeIDs := vm.nodeIDs()
	if h.mode != ModeSiloz { // no domain: the sources are the nodes the frames came from
		for _, hpa := range srcRAM {
			if id := h.nodeOf(hpa); !slices.Contains(srcNodeIDs, id) {
				srcNodeIDs = append(srcNodeIDs, id)
			}
		}
		slices.Sort(srcNodeIDs)
	}

	// Step 1: widen the domain over the destination nodes — the registry
	// enforces that they are unowned, so exclusivity is never violated —
	// and take the destination frames from them alone: RAM in 2 MiB frames
	// spilling across the nodes in the given order, guest-placed regions in
	// 4 KiB pages (Siloz only; under the baseline region pages are
	// host-reserved and stay put).
	t := frameTxn{h: h, vm: vm}
	if err := t.adopt(dests...); err != nil {
		return nil, err
	}
	destIDs := t.adopted
	if err := t.take(alloc.Order2M, len(srcRAM), false); err != nil {
		return nil, fmt.Errorf("core: migrating VM %q: %w", name, err)
	}
	dstRAM := t.frames
	var moves []regionMove
	for i := range vm.regions {
		info := &vm.regions[i]
		if h.mode != ModeSiloz || !info.Type.Unmediated() {
			continue
		}
		if err := t.take(0, len(info.pages), true); err != nil {
			return nil, fmt.Errorf("core: migrating VM %q: region %q: %w", name, info.Name, err)
		}
		moves = append(moves, regionMove{info: info, run: t.runs[len(t.runs)-1]})
	}

	// Steps 2 and 3, up to the commit: page p goes frame to frame. The
	// destination frames are the VM's in-flight frames until then.
	vm.inflight = t.runs
	var rowBuf [bounceRowBytes]byte
	scratch := bounceRow(&rowBuf, h.mem.Geometry().RowBytes)
	rep := &MigrateReport{
		VM: name, SourceNodes: srcNodeIDs, DestNodes: destIDs, PagesTotal: len(srcRAM),
	}
	err = vm.precopy(ctx, opt, rep, func(p int) (bool, error) {
		return h.mem.CopyPhys(dstRAM[p], h.mem, srcRAM[p], geometry.PageSize2M, scratch)
	})
	if err != nil {
		vm.inflight = nil
		t.rollback()
		return nil, err
	}
	// The guest is paused. abort is the one way out before commit: it resumes
	// on its source frames with full write permission, destination frames are
	// scrubbed and freed, and the domain shrinks back off the destination
	// nodes.
	abort := func(err error) (*MigrateReport, error) {
		vm.Resume()
		_ = vm.StopDirtyTracking()
		vm.inflight = nil
		t.rollback()
		return nil, err
	}
	// Guest-placed region pages (4 KiB): one shot.
	for _, mv := range moves {
		for i, src := range mv.info.pages {
			if _, err := h.mem.CopyPhys(mv.run.pages[i], h.mem, src, geometry.PageSize4K, scratch); err != nil {
				return abort(err)
			}
		}
	}

	// Commit the destination layout; remapping RAM leaves writable also
	// disarms the per-leaf write protection. vacate scrubs every source frame
	// below, whatever the copy saw in it.
	gone := vm.ramRuns(0)
	if err := vm.commitLayout(dstRAM, moves); err != nil {
		return abort(fmt.Errorf("core: migrating VM %q: %w", name, err))
	}
	vm.inflight = nil
	for _, mv := range moves {
		gone = append(gone, mv.run) // now the region's source pages
	}
	vm.dirtyMu.Lock()
	vm.tracking = false
	vm.dirty.clear()
	vm.dirtyMu.Unlock()

	// Still paused: pull the EPT tables onto the destination socket when the
	// migration crossed sockets, so the guard-block placement argument (§5.4)
	// holds for where the guest now lives and the source EPT row group can
	// drain. A relocation failure is not fatal to the migration — Relocate
	// rolls itself back, leaving the old hierarchy live on the source socket
	// — but it is surfaced to the caller after the source nodes are released.
	var relocErr error
	if h.mode == ModeSiloz {
		if dstSocket, ok := socketOfNodes(dests); ok && dstSocket != vm.eptSocket {
			var moved int
			moved, relocErr = h.relocateTables(vm, dstSocket)
			if relocErr == nil {
				rep.EPTRelocatedPages = moved
				rep.EPTReclaimedBytes = uint64(moved) * geometry.PageSize4K
			}
		}
	}

	// Step 4: still paused, vacate the source. Only after the vacated groups
	// have left the VM's control group does the guest resume, so at no
	// instant can a tenant access memory outside its domain.
	if _, _, err := h.vacate(vm, gone, srcNodeIDs, ""); err != nil {
		// The guest already runs entirely on destination frames, so whatever
		// was not freed or released is over-reservation, not an isolation
		// breach — still, re-audit the whole system and return the findings
		// with the error, so the drift is on record rather than silent.
		vm.Resume()
		findings := h.Audit()
		return rep, fmt.Errorf("core: releasing source nodes %v of VM %q: %w (domain remains widened; post-failure audit: %d findings %q)",
			srcNodeIDs, name, err, len(findings), findings)
	}
	vm.Resume()
	if relocErr != nil {
		return rep, relocErr
	}
	return rep, nil
}

// MoveOut is the source side of a cross-host move: it copies the named VM
// into dest — its twin, on any host, with at least the same resident GPA
// prefix — through the pre-copy engine, then destroys it here: page p goes
// into the twin's page p, charged as precopy charges every copy.
// commit runs once the copy is complete, between the ProbeMoveCopied and
// ProbeMoveCommitted probes, without h.mu but with the guest still paused
// and latched — the caller points the world at the twin there,
// and must not touch this VM's guest memory — and the source is torn down,
// scrubbed, before the gate reopens: a store blocked on it fails, so none is
// ever acknowledged by a copy about to be destroyed. On error the VM runs on
// here untouched and dest is the caller's to discard.
func (h *Hypervisor) MoveOut(ctx context.Context, name string, dest *VM, opt MigrateOptions, commit func(*MigrateReport)) error {
	vm, err := h.latch(name, "cross-host move")
	if err != nil {
		return err
	}
	defer h.unlatch(vm)
	if dest == vm {
		return fmt.Errorf("core: VM %q moving onto itself", name)
	}
	dest.hv.mu.Lock()
	usable := len(dest.ram)
	dest.hv.mu.Unlock()
	if len(vm.ram) > usable {
		return fmt.Errorf("core: moving VM %q: %d resident pages, beyond the twin's usable prefix (%d pages)",
			name, len(vm.ram), usable)
	}
	var rowBuf [bounceRowBytes]byte
	scratch := bounceRow(&rowBuf, h.mem.Geometry().RowBytes)
	rep := &MigrateReport{VM: name, PagesTotal: len(vm.ram)}
	srcRAM := vm.ram
	err = vm.precopy(ctx, opt, rep, func(p int) (bool, error) {
		// The latch keeps this VM's layout (srcRAM) still and, in the residue,
		// its gate is already held exclusively: only the twin's is taken,
		// shared — for the twin this is a guest store. The twin is the
		// caller's until the move ends (fleet.MoveVM creates it and alone
		// destroys it, in its unwind), so nothing destroys or resizes it while
		// a page is copied, and dest.ram[p] is the frame behind the twin's
		// page p: no EPT walk is needed. A twin destroyed or shrunk between
		// copies, by a guest step, is refused here rather than written.
		dest.pauseMu.RLock()
		defer dest.pauseMu.RUnlock()
		if dest.tables == nil {
			return false, fmt.Errorf("core: VM %q has been destroyed", dest.spec.Name)
		}
		if p >= len(dest.ram) {
			return false, fmt.Errorf("core: moving VM %q: page %d is beyond the twin's usable prefix (%d pages)",
				name, p, len(dest.ram))
		}
		return dest.hv.mem.CopyPhys(dest.ram[p], h.mem, srcRAM[p], geometry.PageSize2M, scratch)
	})
	if err != nil {
		return err
	}
	h.probe(Event{Kind: ProbeMoveCopied, VM: vm})
	commit(rep)
	h.probe(Event{Kind: ProbeMoveCommitted, VM: vm})
	h.mu.Lock()
	vm.teardown()
	delete(h.vms, name)
	h.mu.Unlock()
	vm.Resume()
	return nil
}

// bounceRowBytes is the length of the stack row a copy moves data through:
// every geometry in use has rows of at most 8 KiB.
const bounceRowBytes = 8 << 10

// bounceRow returns CopyPhys's bounce row: buf, on the caller's stack, or
// for rows longer than it a heap row of their own.
func bounceRow(buf *[bounceRowBytes]byte, rowBytes int) []byte {
	if rowBytes <= len(buf) {
		return buf[:]
	}
	return make([]byte, rowBytes)
}

// socketOfNodes resolves the single socket hosting every listed node; ok is
// false when the nodes span sockets (or the list is empty), in which case
// there is no one home for the EPT tables to follow.
func socketOfNodes(nodes []*numa.Node) (socket int, ok bool) {
	if len(nodes) == 0 {
		return 0, false
	}
	for _, n := range nodes[1:] {
		if n.Socket != nodes[0].Socket {
			return 0, false
		}
	}
	return nodes[0].Socket, true
}

// validateMigrationDests checks and dedupes the destination node list.
func (h *Hypervisor) validateMigrationDests(vm *VM, destNodeIDs []int) ([]*numa.Node, error) {
	if len(destNodeIDs) == 0 {
		return nil, fmt.Errorf("core: migration of VM %q needs at least one destination node", vm.spec.Name)
	}
	out := make([]*numa.Node, 0, len(destNodeIDs))
	for _, id := range destNodeIDs {
		if slices.ContainsFunc(out, func(n *numa.Node) bool { return n.ID == id }) {
			continue
		}
		n, err := h.topo.Node(id)
		if err != nil {
			return nil, err
		}
		if h.mode == ModeSiloz {
			if n.Kind != numa.GuestReserved {
				return nil, fmt.Errorf("core: destination node %d is %s-reserved; guest pages need guest-reserved nodes", id, n.Kind)
			}
			if vm.cgroup != nil && vm.cgroup.Allows(id) {
				return nil, fmt.Errorf("core: destination node %d already belongs to VM %q", id, vm.spec.Name)
			}
		} else if n.Kind != numa.HostReserved {
			return nil, fmt.Errorf("core: baseline destination node %d must be host-reserved", id)
		}
		out = append(out, n)
	}
	return out, nil
}

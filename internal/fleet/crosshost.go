package fleet

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geometry"
)

// CrossHostReport summarizes one completed cross-host migration.
type CrossHostReport struct {
	VM         string
	Source     string
	Dest       string
	DestSocket int
	// PagesCopied / BytesCopied cover every pre-copy round.
	PagesCopied int
	BytesCopied uint64
	// DowntimeBytes are the bytes of the final stop-and-copy round —
	// what the guest is paused for. Downtime in time units is
	// DowntimeBytes over a modeled copy bandwidth (Stats.DowntimeMs).
	DowntimeBytes uint64
}

// moveRounds is the move's pre-copy budget: one round over the touched pages,
// and what the guest dirtied meanwhile is the paused residue. A constant, not
// an option: raising it changes every modelled move.
const moveRounds = 1

// MoveVM migrates a VM to another host. The fleet's part is the twin — an
// equally sized guest created (and, for a ballooned source, shrunk) by ops
// on the destination — the routing flip and the counters. The copy, the
// pause and the source's teardown are core's (Hypervisor.MoveOut), run as
// ONE op on the source, after whatever op is running there. The host's lock
// orders; what excludes is the VM's lifecycle latch, held from the first
// copy to the teardown: a resize, migration or destroy issued straight on
// the source hypervisor is refused (core.ErrResizeBusy).
//
// dirtyPages > 0 injects that many seeded guest writes after the pre-copy
// round, modeling a guest that keeps running during the move (and making
// the stop-and-copy residue non-empty); dirtySeed makes the injection
// reproducible. A move cancelled or refused before the pause leaves the VM
// where it was: ctx is checked before each destination op is submitted, and
// MoveOut consults it up to the pause.
//
// The source hypervisor's lifecycle probe sees the commit from the goroutine
// running the source op, which holds the source host's lock:
// core.ProbeMoveCopied with routing still at the source, then
// core.ProbeMoveCommitted with routing at the destination and the source
// copy not yet destroyed — the double-ownership window. A probe there may
// audit, hammer from other VMs and submit ops to any host but the source,
// but must not touch the moving VM's guest memory: the guest is paused.
//
// Limitations (callers skip such VMs): a VM with extra Regions is not
// movable cross-host, and the source's resident pages must form a GPA
// prefix (always true for balloons inflated through core's policy, which
// surrenders highest-GPA pages first).
func (c *Cluster) MoveVM(ctx context.Context, name, destHost string, destSocket int, dirtyPages int, dirtySeed int64) (*CrossHostReport, error) {
	c.mu.Lock()
	srcName, ok := c.vmHost[name]
	dst, known := c.byName[destHost]
	_, inFlight := c.moving[name]
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("move %q: %w", name, ErrUnknownVM)
	case inFlight:
		err = fmt.Errorf("move %q: %w", name, ErrVMMigrating)
	case srcName == destHost:
		err = fmt.Errorf("fleet: move %q: already on %s", name, destHost)
	case !known:
		err = fmt.Errorf("move %q to %q: %w", name, destHost, ErrUnknownHost)
	}
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	proc := c.procs[name]
	c.moving[name] = moveWindow{Src: srcName, Dst: destHost}
	c.mu.Unlock()

	// The one unwind, for every way out: a move that did not commit takes its
	// twin back, and the move window closes last — the cross-host audit
	// tolerates the name on exactly {source, destination} only while it is
	// open.
	created, committed := false, false
	defer func() {
		if created && !committed {
			_ = done(dst.SubmitDestroy(name))
		}
		c.mu.Lock()
		delete(c.moving, name)
		c.mu.Unlock()
	}()

	src := c.byName[srcName]
	srcVM, ok := src.Hypervisor().VM(name)
	if !ok {
		return nil, fmt.Errorf("move %q: vanished from %s: %w", name, srcName, ErrUnknownVM)
	}
	spec := srcVM.Spec()
	if len(spec.Regions) > 0 {
		return nil, fmt.Errorf("fleet: move %q: VMs with extra regions are not movable cross-host", name)
	}

	// Destination side: boot the twin at full spec size, then resize it
	// down to the source's current usable RAM if the source is ballooned
	// (both balloons hold the same top-of-GPA suffix afterwards).
	destSpec := spec
	destSpec.Socket = destSocket
	if err = ctx.Err(); err == nil {
		err = done(dst.SubmitCreate(proc, destSpec))
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: move %q: create on %s: %w", name, destHost, err)
	}
	created = true
	usable := spec.MemoryBytes - srcVM.BalloonedBytes()
	if usable < spec.MemoryBytes {
		if err = ctx.Err(); err == nil {
			err = done(dst.SubmitResize(name, usable))
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: move %q: shrink dest to %d: %w", name, usable, err)
		}
	}
	destVM, ok := dst.Hypervisor().VM(name)
	if !ok {
		return nil, fmt.Errorf("move %q: dest twin vanished: %w", name, ErrUnknownVM)
	}

	// Source side, as one op. It takes ctx itself: once it has paused the
	// guest it runs to the end.
	opt := core.MigrateOptions{MaxRounds: moveRounds}
	if usablePages := int(usable / geometry.PageSize2M); dirtyPages > 0 && usablePages > 0 {
		// Modeled guest activity: seeded stores dirty a few pages.
		opt.GuestStep = func(int) error {
			rng := rand.New(rand.NewSource(dirtySeed))
			stamp := make([]byte, 64)
			for i := 0; i < dirtyPages; i++ {
				rng.Read(stamp)
				gpa := uint64(rng.Intn(usablePages)) * geometry.PageSize2M
				if err := srcVM.WriteGuest(gpa, stamp); err != nil {
					return err
				}
			}
			return nil
		}
	}
	rep := &CrossHostReport{VM: name, Source: srcName, Dest: destHost, DestSocket: destSocket}
	err = done(src.Submit(func() error {
		return src.Hypervisor().MoveOut(ctx, name, destVM, opt, func(m *core.MigrateReport) {
			rep.PagesCopied, rep.BytesCopied, rep.DowntimeBytes = m.PagesCopied, m.BytesCopied, m.DowntimeBytes
			// Commit: route to the destination; MoveOut tears the source down next.
			c.mu.Lock()
			c.vmHost[name] = destHost
			c.stats.CrossMoves++
			c.stats.MigratedBytes += rep.BytesCopied
			c.stats.DowntimeBytes += rep.DowntimeBytes
			c.mu.Unlock()
			committed = true
		})
	}))
	if err != nil {
		return nil, fmt.Errorf("fleet: move %q: source copy: %w", name, err)
	}
	return rep, nil
}

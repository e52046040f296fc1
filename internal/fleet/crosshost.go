package fleet

import (
	"context"
	"errors"
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
	// DowntimeBytes over the cluster's modeled copy bandwidth.
	DowntimeBytes uint64
}

// MoveVM migrates a VM to another host: create an equally-sized guest on
// the destination, pre-copy the source's touched pages under dirty
// tracking, stop-and-copy the residue, then destroy the source. The whole
// source side runs as ONE op on the VM's queue — the queue is the lifecycle
// latch, so no resize/destroy can interleave with the copy.
//
// dirtyPages > 0 injects that many seeded guest writes between pre-copy
// rounds, modeling a guest that keeps running during the move (and making
// the stop-and-copy round non-empty); dirtySeed makes the injection
// reproducible.
//
// Limitations (callers skip such VMs): a VM with extra Regions is not
// movable cross-host, and the source's resident pages must form a GPA
// prefix (always true for balloons inflated through core's policy, which
// surrenders highest-GPA pages first).
func (c *Cluster) MoveVM(ctx context.Context, name, destHost string, destSocket int, dirtyPages int, dirtySeed int64) (*CrossHostReport, error) {
	c.mu.Lock()
	srcName, ok := c.vmHost[name]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("move %q: %w", name, ErrUnknownVM)
	}
	if _, inFlight := c.moving[name]; inFlight {
		c.mu.Unlock()
		return nil, fmt.Errorf("move %q: %w", name, ErrVMMigrating)
	}
	if srcName == destHost {
		c.mu.Unlock()
		return nil, fmt.Errorf("fleet: move %q: already on %s", name, destHost)
	}
	dst, ok := c.byName[destHost]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("move %q to %q: %w", name, destHost, ErrUnknownHost)
	}
	proc := c.procs[name]
	c.moving[name] = moveWindow{Src: srcName, Dst: destHost}
	c.mu.Unlock()

	src := c.byName[srcName]
	unmove := func() {
		c.mu.Lock()
		delete(c.moving, name)
		c.mu.Unlock()
	}

	srcVM, ok := src.Hypervisor().VM(name)
	if !ok {
		unmove()
		return nil, fmt.Errorf("move %q: vanished from %s: %w", name, srcName, ErrUnknownVM)
	}
	spec := srcVM.Spec()
	if len(spec.Regions) > 0 {
		unmove()
		return nil, fmt.Errorf("fleet: move %q: VMs with extra regions are not movable cross-host", name)
	}

	// Destination side: boot the twin at full spec size, then resize it
	// down to the source's current usable RAM if the source is ballooned
	// (both balloons hold the same top-of-GPA suffix afterwards).
	destSpec := spec
	destSpec.Socket = destSocket
	op, err := dst.SubmitCreate(proc, destSpec)
	if err != nil {
		unmove()
		return nil, err
	}
	if err := op.Wait(ctx); err != nil {
		unmove()
		return nil, fmt.Errorf("fleet: move %q: create on %s: %w", name, destHost, err)
	}
	destroyDest := func() {
		if op, err := dst.SubmitDestroy(name); err == nil {
			_ = op.Wait(context.Background())
		}
	}
	usable := spec.MemoryBytes - srcVM.BalloonedBytes()
	if usable < spec.MemoryBytes {
		op, err := dst.SubmitResize(name, usable)
		if err == nil {
			err = op.Wait(ctx)
		}
		if err != nil {
			destroyDest()
			unmove()
			return nil, fmt.Errorf("fleet: move %q: shrink dest to %d: %w", name, usable, err)
		}
	}
	destVM, ok := dst.Hypervisor().VM(name)
	if !ok {
		unmove()
		return nil, fmt.Errorf("move %q: dest twin vanished: %w", name, ErrUnknownVM)
	}

	// Source side, as one queued op.
	rep := &CrossHostReport{VM: name, Source: srcName, Dest: destHost, DestSocket: destSocket}
	usablePages := int(usable / geometry.PageSize2M)
	srcOp, err := src.Submit(name, "move", func() error {
		if err := srcVM.StartDirtyTracking(); err != nil {
			return err
		}
		defer srcVM.StopDirtyTracking()
		scratch := make([]byte, src.Hypervisor().Memory().Geometry().RowBytes)
		// The modelled transfer is page-granular whatever the page holds:
		// every touched or dirtied page counts 2 MiB.
		copyPage := func(gpa uint64) error {
			if int(gpa/geometry.PageSize2M) >= usablePages {
				return fmt.Errorf("fleet: move %q: resident page at gpa %#x beyond usable prefix (%d pages)",
					name, gpa, usablePages)
			}
			if _, err := destVM.CopyGuest(srcVM, gpa, geometry.PageSize2M, scratch); err != nil {
				return err
			}
			rep.PagesCopied++
			rep.BytesCopied += geometry.PageSize2M
			return nil
		}
		// Round 1: every page the guest ever wrote. Untouched pages read
		// as zeros on any host and need no copy.
		for _, p := range srcVM.TouchedPages() {
			if err := copyPage(uint64(p) * geometry.PageSize2M); err != nil {
				return err
			}
		}
		// Modeled guest activity between rounds: seeded stores dirty a
		// few pages, so the stop-and-copy round below is non-empty.
		if dirtyPages > 0 && usablePages > 0 {
			rng := rand.New(rand.NewSource(dirtySeed))
			stamp := make([]byte, 64)
			for i := 0; i < dirtyPages; i++ {
				rng.Read(stamp)
				gpa := uint64(rng.Intn(usablePages)) * geometry.PageSize2M
				if err := srcVM.WriteGuest(gpa, stamp); err != nil {
					return err
				}
			}
		}
		// Stop-and-copy: drain the dirty log with the guest notionally
		// paused; these bytes are the downtime.
		dirty, err := srcVM.TakeDirty()
		if err != nil {
			return err
		}
		for _, gpa := range dirty {
			if err := copyPage(gpa); err != nil {
				return err
			}
			rep.DowntimeBytes += geometry.PageSize2M
		}
		return nil
	})
	if err != nil {
		destroyDest()
		unmove()
		return nil, err
	}
	if err := srcOp.Wait(ctx); err != nil {
		destroyDest()
		unmove()
		return nil, fmt.Errorf("fleet: move %q: source copy: %w", name, err)
	}
	c.probeMove("copied", name)

	// Commit: route to the destination, then tear the source down (its
	// pages scrub and its nodes release under the source's own queue).
	// The VM stays marked moving until the source copy is gone — the
	// cross-host audit tolerates the name on exactly {source, destination}
	// only then.
	c.mu.Lock()
	c.vmHost[name] = destHost
	c.stats.CrossMoves++
	c.stats.MigratedBytes += rep.BytesCopied
	c.stats.DowntimeBytes += rep.DowntimeBytes
	c.mu.Unlock()
	c.probeMove("committed", name)
	dropOp, err := src.Submit(name, "destroy", func() error {
		return src.Hypervisor().DestroyVM(name)
	})
	if err != nil {
		unmove()
		return rep, err
	}
	err = dropOp.Wait(ctx)
	unmove()
	if err != nil && !errors.Is(err, core.ErrVMNotFound) {
		return rep, fmt.Errorf("fleet: move %q: destroy source copy: %w", name, err)
	}
	return rep, nil
}

package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/geometry"
)

// The copy loop MoveVM ran inline before core.Hypervisor.MoveOut replaced it,
// kept verbatim as the oracle for the shared pre-copy engine: arm logging,
// copy the touched pages, run the seeded stores, drain the log once with the
// guest running and copy that as the downtime, destroy the source in a second
// queued op. It has the defects the replacement closed (no pause, no latch,
// no cancellation inside the copy), none of which a single-goroutine move
// that is not cancelled can see — on those the two must agree to the byte.
//
// The one substitution: core.VM.CopyGuest left core's surface with the loop,
// so refCopyGuest rebuilds it from what is exported.

// refCopyGuest makes dst's RAM page at gpa equal src's, frame to frame, and
// enters it in dst's touched ledger as a guest store would: by storing back
// a line the page already holds — or, for a page that copied as all zero,
// storing a zero line and scrubbing the whole page, which leaves no row
// materialized, as the copy left none.
func refCopyGuest(dst, src *core.VM, gpa uint64, scratch []byte) error {
	from, err := src.Translate(gpa)
	if err != nil {
		return err
	}
	to, err := dst.Translate(gpa)
	if err != nil {
		return err
	}
	mem := dst.Hypervisor().Memory()
	nonzero, err := mem.CopyPhys(to, src.Hypervisor().Memory(), from, geometry.PageSize2M, scratch)
	if err != nil {
		return err
	}
	line := make([]byte, geometry.CacheLineSize)
	if !nonzero {
		if err := dst.WriteGuest(gpa, line); err != nil {
			return err
		}
		return mem.ScrubPhys(to, geometry.PageSize2M)
	}
	page := make([]byte, geometry.PageSize2M)
	if err := dst.ReadGuest(gpa, page); err != nil {
		return err
	}
	for off := 0; ; off += len(line) {
		if !dram.AllZero(page[off : off+len(line)]) {
			return dst.WriteGuest(gpa+uint64(off), page[off:off+len(line)])
		}
	}
}

func refMoveVM(c *Cluster, ctx context.Context, name, destHost string, destSocket int, dirtyPages int, dirtySeed int64) (*CrossHostReport, error) {
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
	srcOp, err := src.Submit(func() error {
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
			if err := refCopyGuest(destVM, srcVM, gpa, scratch); err != nil {
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
	dropOp, err := src.Submit(func() error {
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

// TestMoveMatchesRetiredLoop moves the same guest on two identical clusters,
// one through MoveVM and one through the retired loop, over a grid of what
// the guest holds (nothing; a few pages; enough that twelve dirtied pages
// neither converge nor look like a stall, where a second pre-copy round
// would appear if the move allowed one; a page stored to but all zero; a
// ballooned guest), how many pages the seeded stores dirty (none, few, more
// than the engine's convergence threshold) and the seed. Report, the twin's
// ledger and bytes, both hosts' materialized rows and the cluster's counters
// must be identical. Mutants this catches, each checked by hand: moveRounds =
// 2, a first round over the resident pages instead of the touched ones,
// charging only pages that hold data, counting Stats before the commit.
func TestMoveMatchesRetiredLoop(t *testing.T) {
	ctx := context.Background()
	const name = "o"
	pages := func(ps ...int) map[int]byte {
		m := map[int]byte{}
		for _, p := range ps {
			m[p] = byte(0x80 | p)
		}
		return m
	}
	dense := pages()
	for p := 0; p < 20; p++ {
		dense[p] = byte(0x80 | p)
	}
	holds := []struct {
		name          string
		bytes, shrink uint64
		stamps        map[int]byte // page -> fill byte of a 128-byte stamp; 0 stores zeros
		refused       bool         // the source has logging armed: both moves must fail alike
	}{
		{name: "nothing", bytes: 64 * geometry.MiB, stamps: pages()},
		{name: "one page", bytes: 64 * geometry.MiB, stamps: pages(3)},
		{name: "sparse", bytes: 64 * geometry.MiB, stamps: pages(0, 5, 17, 31)},
		{name: "twenty pages", bytes: 64 * geometry.MiB, stamps: dense},
		{name: "a zero page", bytes: 64 * geometry.MiB, stamps: map[int]byte{2: 0x82, 9: 0}},
		{name: "ballooned", bytes: 192 * geometry.MiB, shrink: 64 * geometry.MiB, stamps: pages(1, 20)},
		{name: "refused", bytes: 64 * geometry.MiB, stamps: pages(4), refused: true},
	}
	type outcome struct {
		Report   *CrossHostReport
		Err      bool
		Touched  []int
		LiveRows [2]int
		Stats    Stats
		data     []byte
	}
	for _, h := range holds {
		for _, dirty := range []int{0, 1, 4, 12} {
			for _, seed := range []int64{1, 7, 42} {
				run := func(move func(c *Cluster) (*CrossHostReport, error)) outcome {
					t.Helper()
					c := testCluster(t, 2, FirstFit{})
					defer c.Close()
					admit(t, c, name, h.bytes)
					vm, _ := c.Hosts()[0].Hypervisor().VM(name)
					for p, fill := range h.stamps {
						if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M+uint64(p)*64, bytes.Repeat([]byte{fill}, 128)); err != nil {
							t.Fatal(err)
						}
					}
					if h.shrink != 0 {
						op, err := c.SubmitResize(name, h.shrink)
						if err == nil {
							err = op.Wait(ctx)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					if h.refused {
						if err := vm.StartDirtyTracking(); err != nil {
							t.Fatal(err)
						}
					}
					var out outcome
					var err error
					out.Report, err = move(c)
					out.Err = err != nil
					if out.Err != h.refused {
						t.Fatalf("move: %v", err)
					}
					at := 1
					if out.Err {
						at = 0
						if err := vm.StopDirtyTracking(); err != nil {
							t.Fatal(err)
						}
					}
					twin, ok := c.Hosts()[at].Hypervisor().VM(name)
					if !ok {
						t.Fatalf("guest not on host-%d after the move", at)
					}
					out.Touched = twin.TouchedPages()
					page := make([]byte, geometry.PageSize2M)
					for _, p := range out.Touched {
						if err := twin.ReadGuest(uint64(p)*geometry.PageSize2M, page); err != nil {
							t.Fatal(err)
						}
						out.data = append(out.data, bytes.TrimRight(page, "\x00")...)
						out.data = append(out.data, byte(p))
					}
					for i, host := range c.Hosts() {
						out.LiveRows[i] = host.Hypervisor().Memory().LiveRows()
					}
					out.Stats = c.Stats()
					if err := c.AuditIsolation(); err != nil {
						t.Fatal(err)
					}
					return out
				}
				got := run(func(c *Cluster) (*CrossHostReport, error) { return c.MoveVM(ctx, name, "host-1", 1, dirty, seed) })
				want := run(func(c *Cluster) (*CrossHostReport, error) {
					return refMoveVM(c, ctx, name, "host-1", 1, dirty, seed)
				})
				label := fmt.Sprintf("%s, %d dirtied, seed %d", h.name, dirty, seed)
				if !bytes.Equal(got.data, want.data) {
					t.Errorf("%s: the twin's bytes differ from the retired loop's", label)
				}
				got.data, want.data = nil, nil
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s:\nMoveVM       %+v %+v\nretired loop %+v %+v", label, got, got.Report, want, want.Report)
				}
			}
		}
	}
}

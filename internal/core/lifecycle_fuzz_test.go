package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/geometry"
	"repro/internal/numa"
)

// The lifecycle operations FuzzLifecycle decodes, one per three input bytes
// [kind, who, arg]: who&3 picks the VM slot (3 is slot 0), who&4 fails an
// Expand of a resize or migration — the 1+(who>>3&1)th — and the rest of
// who and arg parameterise the operation.
const (
	opCreate = iota
	opResize
	opMigrateSame
	opMigrateCross
	opDMA // attach the slot's device on first use, then a DMA write
	opWrite
	opHammer
	opDestroy
	numOps
)

var opNames = [numOps]string{"create", "resize", "migrate-same", "migrate-cross", "dma", "write", "hammer", "destroy"}

// lifecycleSeeds reach every operation, each resize leg and a refused
// resize and migrate among them (TestLifecycleSeedsReachEveryOp).
var lifecycleSeeds = [][]byte{
	{
		opCreate, 0, 60, // v0: 32 MiB on socket 0
		opWrite, 0, 3,
		opDMA, 4, 5,
		opHammer, 0, 2,
		opHammer, 0, 12, // flips in a frame the shrink below surrenders
		opMigrateSame, 8, 9, // one dirtied page a round
		opMigrateCross, 16, 2, // two
		opResize, 0, 8, // shrink
		opResize, 0, 16, // balloon refill
		opResize, 0, 40, // grow past the spec, adopting a node
		opResize, 0, 0, // refused: not a positive size
		opMigrateCross, 4, 1, // refused: the Expand fails
		opDestroy, 0, 0,
		opDestroy, 0, 0, // refused: no such VM
		opCreate, 0, 124, // 64 MiB on socket 0: nodes v0 left, flips and all
		opWrite, 0, 0,
		opMigrateCross, 0, 0, // page 0 holds data the guest step never dirties
	},
	{
		opCreate, 0, 124, // v0: 64 MiB on socket 0
		opCreate, 1, 125, // v1: 64 MiB on socket 1
		opCreate, 2, 2, // v2: 2 MiB on socket 0, remote allowed
		opCreate, 2, 2, // refused: the name is taken
		opWrite, 2, 0,
		opHammer, 1, 9,
		opResize, 14, 100, // refused: the second adoption's Expand fails
		opResize, 2, 63, // grow past the spec, adopting a node
		opMigrateSame, 0, 0, // refused: socket 0 has no free node left
		opMigrateSame, 1, 0,
		opDMA, 2, 12,
		opResize, 2, 3, // shrink, draining a node
		opMigrateCross, 26, 7,
		opWrite, 0, 31,
		opDestroy, 1, 0,
		opMigrateCross, 24, 4,
	},
	{ // flips in frames the guest never wrote, then those frames change owner
		opCreate, 0, 60, // v0: 32 MiB on socket 0
		opHammer, 0, 12,
		opResize, 0, 8, // shrink: surrenders the flipped page-12 frame
		opHammer, 0, 6,
		opHammer, 0, 7, // flips past the resident top, in the node's free frames
		opDestroy, 0, 0,
		opCreate, 0, 124, // v0: 64 MiB on socket 0, on the node v0 left
		opResize, 0, 48, // grow past the spec, adopting a second node
		opHammer, 0, 40,
		opHammer, 0, 47,
		opResize, 0, 32, // shrink, draining the adopted node
		opCreate, 1, 124, // v1: 64 MiB on socket 0, on the drained node
	},
}

// FuzzLifecycle drives a Siloz host through a byte-decoded sequence of
// lifecycle operations over up to three VMs and, after every one, checks
// what must hold whatever the sequence: the audit is empty; every resident
// page translates the same with and without the TLB, on the EPT and the
// device alike, and nothing is mapped past the resident prefix; no flip
// lands outside the hammering VM's domain; a refused operation left the
// host as it was and fired no lifecycle event; every page a create maps, and
// every page a grow maps from a node the VM did not hold before, reads zero;
// every resident page reads after a migration what it read before, with the
// guest step's stores applied; and the events an operation fired match its report — one round event per
// reported round, in order; a shrink's unmapped then drained, with the
// surrendered frames already zero at drained; a grow's adopted iff it mapped
// pages past the old spec size.
func FuzzLifecycle(f *testing.F) {
	for _, seed := range lifecycleSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runLifecycle(t, ops) })
}

// TestLifecycleSeedsReachEveryOp: the seed corpus, which go test runs as
// part of FuzzLifecycle, exercises what the fuzzer is for.
func TestLifecycleSeedsReachEveryOp(t *testing.T) {
	reached := map[string]int{}
	for _, seed := range lifecycleSeeds {
		for k, n := range runLifecycle(t, seed) {
			reached[k] += n
		}
	}
	want := []string{"resize refused", "migrate-same refused", "migrate-cross refused", "create refused",
		"destroy refused", "shrink", "refill", "grow past spec"}
	for _, op := range opNames {
		want = append(want, op)
	}
	t.Logf("reached %v", reached)
	for _, k := range want {
		if reached[k] == 0 {
			t.Errorf("seeds never reach %q: %v", k, reached)
		}
	}
}

// runLifecycle runs one decoded sequence and reports how often each
// operation went through (by name) or was refused ("name refused").
func runLifecycle(t *testing.T, ops []byte) map[string]int {
	h := bootSiloz(t)
	mem, err := dram.NewMemoryOn(h.mem.RowStore(), h.mem.Geometry(), h.mem.Mapper(), h.cfg.Profiles, nil)
	if err != nil {
		t.Fatal(err)
	}
	blank := &blankMem{Memory: mem, h: h, scratch: make([]byte, h.mem.Geometry().RowBytes)}
	img := &pageImage{blank: blank, block: make([]byte, len(zeroBlock)), lines: map[int][]imageLine{}}
	var (
		vms      [3]*VM
		devs     [3]*Device
		events   []Event
		drained  func() error // the zero check a shrink arms for its drained event
		drainErr error
		reached  = map[string]int{}
	)
	h.SetLifecycleProbe(func(e Event) {
		events = append(events, e)
		if e.Kind == ProbeBalloonDrained && drained != nil {
			drainErr = drained()
		}
	})
	for i := 0; i+3 <= len(ops); i += 3 {
		kind, who, arg := int(ops[i])%numOps, ops[i+1], ops[i+2]
		slot := int(who&3) % 3
		name := fmt.Sprintf("v%d", slot)
		vm := vms[slot]
		if vm == nil && kind >= opDMA && kind <= opHammer {
			continue
		}
		step := fmt.Sprintf("op %d (%s %s, who %#x arg %d)", i/3, opNames[kind], name, who, arg)
		before := snapshotHost(h)
		events, drained, drainErr = nil, nil, nil
		if who&4 != 0 && (kind == opResize || kind == opMigrateSame || kind == opMigrateCross) {
			failAt, calls := 1+int(who>>3&1), 0
			h.expandHook = func([]int) error {
				if calls++; calls == failAt {
					return errInjected
				}
				return nil
			}
		}
		var (
			err    error
			resize *ResizeReport
			mig    *MigrateReport
		)
		oldSpecPages, oldPages, oldNodes := 0, 0, []int(nil)
		if vm != nil {
			oldSpecPages, oldPages, oldNodes = int(vm.spec.MemoryBytes/geometry.PageSize2M), len(vm.ram), vm.nodeIDs()
		}
		switch kind {
		case opCreate:
			var nvm *VM
			nvm, err = h.CreateVM(kvmProc(), VMSpec{
				Name: name, Socket: int(arg & 1), AllowRemote: arg&2 != 0,
				MemoryBytes: uint64(1+int(arg>>2)%32) * geometry.PageSize2M,
			})
			if err == nil {
				vms[slot], devs[slot] = nvm, nil
				if ferr := freshCheck(blank, nvm, 0, nil); ferr != nil {
					t.Fatalf("%s: %v", step, ferr)
				}
			}
		case opResize:
			target := int(arg) % 128
			if vm != nil && target < len(vm.ram) {
				drained = surrenderZeroCheck(blank, vm, target)
			}
			resize, err = h.ResizeVM(name, uint64(target)*geometry.PageSize2M)
		case opMigrateSame, opMigrateCross:
			if vm == nil {
				_, err = h.MigrateVM(context.Background(), name, []int{0}, MigrateOptions{})
				break
			}
			socket := vm.spec.Socket
			if kind == opMigrateCross {
				socket = 1 - socket
			}
			dests, ferr := h.FreeNodes(socket, vm.usableBytes())
			if ferr != nil { // aim at a node that may not take it
				nodes := h.Topology().NodesOnSocket(socket, numa.GuestReserved)
				dests = []int{nodes[int(arg)%len(nodes)].ID}
			}
			dirty := int(who >> 3 & 3)
			if ierr := img.take(vm); ierr != nil {
				t.Fatal(ierr)
			}
			mig, err = h.MigrateVM(context.Background(), name, dests, MigrateOptions{
				MaxRounds: 1 + int(arg)%4, StopPages: 1 + int(arg>>2)%3,
				GuestStep: func(round int) error {
					for p := 0; round < 3 && p < min(dirty, len(vm.ram)); p++ {
						store := []byte{byte(round + 1)}
						if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, store); err != nil {
							return err
						}
						img.store(p, store)
					}
					return nil
				},
			})
			if ierr := img.check(vm); ierr != nil {
				t.Fatalf("%s: migrated (err %v), but %v", step, err, ierr)
			}
		case opDMA:
			if devs[slot] == nil {
				if devs[slot], err = h.AttachDevice(vm, "dev"); err != nil {
					break
				}
				before = snapshotHost(h) // a refused DMA keeps the attach
			}
			pages := int(vm.spec.MemoryBytes / geometry.PageSize2M)
			err = devs[slot].DMAWrite(uint64(int(arg)%pages)*geometry.PageSize2M+uint64(who>>2)*64, []byte{arg | 1, 0xD1})
		case opWrite:
			pages := int(vm.spec.MemoryBytes/geometry.PageSize2M) + 1
			err = vm.WriteGuest(uint64(int(arg)%pages)*geometry.PageSize2M+uint64(who>>2)*64, []byte{arg | 1, 0x3E})
		case opHammer:
			pages := int(vm.spec.MemoryBytes / geometry.PageSize2M)
			gpa := uint64(int(arg)%pages)*geometry.PageSize2M + uint64(who>>2)*uint64(h.mem.Geometry().RowBytes)
			err = vm.Hammer(gpa, 20000, 0)
			h.mem.Refresh()
		case opDestroy:
			if err = h.DestroyVM(name); err == nil {
				vms[slot], devs[slot] = nil, nil
			}
		}
		h.expandHook = nil

		what := opNames[kind]
		switch {
		case err != nil && resize == nil && mig == nil:
			what += " refused"
			if len(events) != 0 {
				t.Fatalf("%s: refused (%v) but fired %v", step, err, eventLog(events))
			}
			if after := snapshotHost(h); !reflect.DeepEqual(before, after) {
				t.Fatalf("%s: refused (%v) but changed the host:\nbefore %+v\nafter  %+v", step, err, before, after)
			}
		case resize != nil:
			var want []Event
			leg := "no-op"
			switch resize.Action {
			case ResizeInflate:
				leg = "shrink"
				want = []Event{{Kind: ProbeBalloonUnmapped, VM: vm}, {Kind: ProbeBalloonDrained, VM: vm}}
			case ResizeDeflate, ResizeHotplug:
				leg = "refill"
				if len(vm.ram) > oldSpecPages {
					leg = "grow past spec"
					want = []Event{{Kind: ProbeHotplugAdopted, VM: vm}}
				}
				if ferr := freshCheck(blank, vm, oldPages, oldNodes); ferr != nil {
					t.Fatalf("%s: %s: %v", step, leg, ferr)
				}
			}
			reached[leg]++
			if !slices.Equal(events, want) {
				t.Fatalf("%s: %s fired %v, want %v", step, leg, eventLog(events), eventLog(want))
			}
			if drainErr != nil {
				t.Fatalf("%s: at %s: %v", step, ProbeBalloonDrained, drainErr)
			}
		case mig != nil:
			var want []Event
			for _, r := range mig.Rounds {
				want = append(want, Event{Kind: ProbeMigrateRound, VM: vm, Round: r})
			}
			if !slices.Equal(events, want) {
				t.Fatalf("%s: fired %v, want the report's rounds %v", step, eventLog(events), eventLog(want))
			}
		case len(events) != 0:
			t.Fatalf("%s: fired %v", step, eventLog(events))
		}
		reached[what]++

		if bad := h.Audit(); len(bad) != 0 {
			t.Fatalf("%s: audit: %v", step, bad)
		}
		for s, v := range vms {
			if v != nil {
				checkViews(t, step, v, devs[s])
			}
		}
		for _, fl := range h.mem.Flips() { // the log lists each module's flips in turn: reset it
			pa, err := h.mem.FlipPhys(fl)
			if err != nil {
				t.Fatal(err)
			}
			if kind != opHammer || !vm.InDomain(pa) {
				t.Fatalf("%s: flip %v at %#x outside the hammering VM's domain", step, fl, pa)
			}
		}
		h.mem.ResetFlips()
	}
	h.SetLifecycleProbe(nil)
	return reached
}

// pageImage is what a VM's resident pages read: the nonzero cache lines of
// each page holding data, by page index; every other byte reads zero. Keeping
// lines, not pages, keeps an image small and lets its check test the rest of
// a page by copying instead of reading it.
type pageImage struct {
	blank *blankMem
	block []byte // one 64 KiB block read back
	lines map[int][]imageLine
}

// imageLine is one nonzero cache line of a page, at byte offset off.
type imageLine struct {
	off  int
	data [geometry.CacheLineSize]byte
}

// take makes img what vm's resident pages read now. A page, and then each
// 64 KiB block of a page holding data, is tested through blank, so only a
// block holding data is read; blank is scrubbed back after each such copy.
func (img *pageImage) take(vm *VM) error {
	clear(img.lines)
	for p, hpa := range vm.ram {
		if zero, err := img.blank.zero(hpa, geometry.PageSize2M); err != nil || zero {
			if err != nil {
				return err
			}
			continue
		}
		if err := img.blank.ScrubPhys(hpa, geometry.PageSize2M); err != nil {
			return err
		}
		var lines []imageLine
		for off := 0; off < geometry.PageSize2M; off += len(img.block) {
			pa := hpa + uint64(off)
			if zero, err := img.blank.zero(pa, len(img.block)); err != nil || zero {
				if err != nil {
					return err
				}
				continue
			}
			if err := img.blank.ScrubPhys(pa, len(img.block)); err != nil {
				return err
			}
			if err := img.blank.h.mem.ReadPhys(pa, img.block); err != nil {
				return err
			}
			for i := 0; i < len(img.block); i += geometry.CacheLineSize {
				if l := img.block[i : i+geometry.CacheLineSize]; !allZero(l) {
					lines = append(lines, imageLine{off: off + i, data: [geometry.CacheLineSize]byte(l)})
				}
			}
		}
		img.lines[p] = lines
	}
	return nil
}

// store applies a guest store of data (within one line) at the start of
// page p.
func (img *pageImage) store(p int, data []byte) {
	lines := img.lines[p]
	if len(lines) == 0 || lines[0].off != 0 {
		lines = append([]imageLine{{}}, lines...)
	}
	copy(lines[0].data[:], data)
	img.lines[p] = lines
}

// check requires every resident page of vm to read what img holds for it.
// A page is not read whole: its image lines are read and compared, and the
// rest of it must be zero, which holdsBeyond tests by copying.
func (img *pageImage) check(vm *VM) error {
	var got [geometry.CacheLineSize]byte
	for p, hpa := range vm.ram {
		for _, l := range img.lines[p] {
			if err := img.blank.h.mem.ReadPhys(hpa+uint64(l.off), got[:]); err != nil {
				return err
			}
			if got != l.data {
				return fmt.Errorf("%s page %d (frame %#x) line at offset %d reads %x, want %x", vm.Name(), p, hpa, l.off, got, l.data)
			}
		}
		if beyond, err := img.holdsBeyond(hpa, img.lines[p]); err != nil {
			return err
		} else if beyond {
			return fmt.Errorf("%s page %d (frame %#x) holds data it did not hold", vm.Name(), p, hpa)
		}
	}
	return nil
}

// holdsBeyond reports whether the frame at hpa holds a nonzero byte outside
// lines. Without lines that is a zero test through blank. Otherwise the frame
// is copied into blank, the lines are scrubbed there, and the copy of what is
// left to a second frame of blank reports whether any of it is nonzero;
// blank is scrubbed back.
func (img *pageImage) holdsBeyond(hpa uint64, lines []imageLine) (bool, error) {
	b := img.blank
	if len(lines) == 0 {
		zero, err := b.zero(hpa, geometry.PageSize2M)
		return !zero, err
	}
	if _, err := b.CopyPhys(hpa, b.h.mem, hpa, geometry.PageSize2M, b.scratch); err != nil {
		return false, err
	}
	for _, l := range lines {
		if err := b.ScrubPhys(hpa+uint64(l.off), geometry.CacheLineSize); err != nil {
			return false, err
		}
	}
	other := uint64(0)
	if hpa == 0 {
		other = geometry.PageSize2M
	}
	beyond, err := b.CopyPhys(other, b.Memory, hpa, geometry.PageSize2M, b.scratch)
	for _, pa := range []uint64{hpa, other} {
		if serr := b.ScrubPhys(pa, geometry.PageSize2M); err == nil {
			err = serr
		}
	}
	return beyond, err
}

// surrenderZeroCheck returns the check a shrink of vm to keep pages runs at
// its drained event: every surrendered frame reads zero, whatever the guest
// or a flip left in it.
func surrenderZeroCheck(blank *blankMem, vm *VM, keep int) func() error {
	frames := slices.Clone(vm.ram[keep:])
	return func() error {
		for i, hpa := range frames {
			if zero, err := blank.zero(hpa, geometry.PageSize2M); err != nil {
				return err
			} else if !zero {
				return fmt.Errorf("surrendered page %d (frame %#x) holds data", keep+i, hpa)
			}
		}
		return nil
	}
}

// freshCheck requires every page of vm from page from up, on a node not in
// held, to read zero: memory a VM gains from outside its domain is fresh,
// however the last tenant of its frames and nodes left them.
func freshCheck(blank *blankMem, vm *VM, from int, held []int) error {
	h := blank.h
	for p := from; p < len(vm.ram); p++ {
		hpa := vm.ram[p]
		if slices.Contains(held, h.nodeOf(hpa)) {
			continue
		}
		if zero, err := blank.zero(hpa, geometry.PageSize2M); err != nil {
			return err
		} else if !zero {
			return fmt.Errorf("%s page %d (frame %#x, node %d) maps holding data", vm.Name(), p, hpa, h.nodeOf(hpa))
		}
	}
	return nil
}

// blankMem is a memory of h's geometry that holds nothing, and the bounce row
// of the copies the zero checks make into it.
type blankMem struct {
	*dram.Memory
	h       *Hypervisor
	scratch []byte
}

// zero reports whether the n bytes at pa of h read zero by copying them to
// the same address of blank: the copy reports whether they held a nonzero
// byte and, as a read does, passes over a region with no live row at once.
// Reading each frame into a buffer and comparing it cost ~100 µs a frame,
// most of a fuzz input's time. blank stays blank while what it checks is
// zero.
func (b *blankMem) zero(pa uint64, n int) (bool, error) {
	nonzero, err := b.CopyPhys(pa, b.h.mem, pa, n, b.scratch)
	return !nonzero, err
}

// checkViews requires every resident page of vm to translate to its frame
// through the TLB, the EPT walk and the device alike, and every page past
// the resident prefix, up to one past the spec's size, to fault in all three.
func checkViews(t *testing.T, step string, vm *VM, dev *Device) {
	t.Helper()
	pages := int(vm.spec.MemoryBytes/geometry.PageSize2M) + 1
	for p := 0; p < pages; p++ {
		gpa := uint64(p) * geometry.PageSize2M
		cached, cerr := vm.Translate(gpa)
		walked, werr := vm.TranslateUncached(gpa)
		iommu, derr := uint64(0), errors.New("no device")
		if dev != nil {
			iommu, derr = dev.translate(gpa)
		}
		if p < len(vm.ram) {
			want := vm.ram[p]
			if cerr != nil || werr != nil || cached != want || walked != want || (dev != nil && (derr != nil || iommu != want)) {
				t.Fatalf("%s: %s page %d: TLB %#x (%v), EPT %#x (%v), IOMMU %#x (%v), want frame %#x",
					step, vm.Name(), p, cached, cerr, walked, werr, iommu, derr, want)
			}
		} else if cerr == nil || werr == nil || derr == nil {
			t.Fatalf("%s: %s page %d past the %d resident maps: TLB %#x (%v), EPT %#x (%v), IOMMU %#x (%v)",
				step, vm.Name(), p, len(vm.ram), cached, cerr, walked, werr, iommu, derr)
		}
	}
}

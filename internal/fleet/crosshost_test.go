package fleet

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/geometry"
)

// TestCrossHostMoveCostFollowsDataHeld: moving a 128 MiB guest that holds two
// stamped pages to another host costs what those pages cost. After one round
// trip (so both hosts' row arenas and table rows exist) the move allocates
// no page buffer and no slab, the destination host materializes exactly the
// rows the source's destroy gives back, the twin's touched ledger is the
// copied set — so its own destroy will scrub them — and the bytes arrive.
func TestCrossHostMoveCostFollowsDataHeld(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, 2, FirstFit{})
	admit(t, c, "sparse", 128*geometry.MiB)
	vmOn := func(host int) *core.VM {
		t.Helper()
		vm, ok := c.Hosts()[host].Hypervisor().VM("sparse")
		if !ok {
			t.Fatalf("no copy of the guest on host-%d", host)
		}
		return vm
	}
	stamps := map[uint64][]byte{
		3*geometry.PageSize2M + 4096: bytes.Repeat([]byte{0xc3}, 128),
		40*geometry.PageSize2M + 512: bytes.Repeat([]byte{0x3c}, 128),
	}
	for gpa, data := range stamps {
		if err := vmOn(0).WriteGuest(gpa, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, dest := range []string{"host-1", "host-0"} {
		if _, err := c.MoveVM(ctx, "sparse", dest, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	mem := [2]*dram.Memory{c.Hosts()[0].Hypervisor().Memory(), c.Hosts()[1].Hypervisor().Memory()}
	// Three seeded guest stores between the rounds, so the stop-and-copy
	// round copies pages too: what the source holds once the copy is done —
	// its ledger and its rows — is what was copied.
	var copied []int
	before := [2]int{0, mem[1].LiveRows()}
	c.Hosts()[0].Hypervisor().SetLifecycleProbe(func(event string, _ *core.VM) {
		if event == core.ProbeMoveCopied {
			copied = vmOn(0).TouchedPages()
			before[0] = mem[0].LiveRows()
		}
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rep, err := c.MoveVM(ctx, "sparse", "host-1", 0, 3, 7)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 256*geometry.KiB {
		t.Errorf("moving two stamped pages allocated %d bytes on the host, want under 256 KiB", grew)
	}
	gave, took := before[0]-mem[0].LiveRows(), mem[1].LiveRows()-before[1]
	if took != gave || took < 2 || took > 4+3 {
		t.Errorf("the source's destroy released %d rows and the destination materialized %d; want the same few", gave, took)
	}
	if len(copied) < 2 || len(copied) > 5 || rep.BytesCopied < uint64(len(copied))*geometry.PageSize2M {
		t.Errorf("copied set %v, report %+v: the modelled transfer counts every copied page whole", copied, rep)
	}
	twin := vmOn(1)
	if got := twin.TouchedPages(); !reflect.DeepEqual(got, copied) {
		t.Errorf("destination touched ledger %v, want the copied set %v", got, copied)
	}
	for gpa, want := range stamps {
		got := make([]byte, len(want))
		if err := twin.ReadGuest(gpa, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("stamp at gpa %#x lost in the move", gpa)
		}
	}
	if err := c.AuditIsolation(); err != nil {
		t.Fatal(err)
	}
}

// TestOpposingCrossHostMovesDoNotDeadlock swaps two guests between two hosts,
// again and again: the goroutine moving one copies rows into host-1's memory
// while the goroutine moving the other copies rows into host-0's. A copy that
// held a row lock of one memory while waiting for the other's would lock up
// here; the copy holds one at a time. Wired into `make race-quick`; a hang
// fails at the timeout.
func TestOpposingCrossHostMovesDoNotDeadlock(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := testCluster(t, 2, FirstFit{})
	guests := []string{"east", "west"}
	at := map[string]int{"east": 0, "west": 0}
	for _, name := range guests {
		admit(t, c, name, 64*geometry.MiB)
	}
	if _, err := c.MoveVM(ctx, "west", "host-1", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	at["west"] = 1
	page := func(name string, p int) []byte {
		return bytes.Repeat([]byte{name[0] ^ byte(p)}, geometry.PageSize2M)
	}
	const dataPages = 6 // dense, so each copy spends its time moving rows
	for _, name := range guests {
		vm, _ := c.Hosts()[at[name]].Hypervisor().VM(name)
		for p := 0; p < dataPages; p++ {
			if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, page(name, p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(guests))
		for i, name := range guests {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = c.MoveVM(ctx, name, fmt.Sprintf("host-%d", 1-at[name]), 0, 2, int64(round))
			}()
		}
		wg.Wait()
		for i, name := range guests {
			if errs[i] != nil {
				t.Fatalf("round %d: moving %s: %v", round, name, errs[i])
			}
			at[name] = 1 - at[name]
		}
		if err := c.AuditIsolation(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// The seeded stores of every round overwrote 64 bytes at the head of a
	// few pages; the rest of each data page is as it was written.
	buf := make([]byte, geometry.PageSize2M)
	for _, name := range guests {
		vm, _ := c.Hosts()[at[name]].Hypervisor().VM(name)
		for p := 0; p < dataPages; p++ {
			if err := vm.ReadGuest(uint64(p)*geometry.PageSize2M, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf[64:], page(name, p)[64:]) {
				t.Errorf("%s page %d damaged by the swaps", name, p)
			}
		}
	}
}

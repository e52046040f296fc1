// Migration: live defragmentation end to end. Siloz's exclusive subarray
// group reservations fragment a socket: here three tenants own every guest
// group on socket 0, so a fourth VM is refused even though the other socket
// sits idle. The migration planner picks a victim, the pre-copy engine
// moves it across sockets while its guest keeps writing, and the pending
// VM is admitted — with byte identity across the move and the isolation
// invariant audited after every round.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/migrate"
)

// A small two-socket box: 4 subarray groups of 64 MiB per socket, which
// Siloz carves into 1 host + 1 EPT + 3 guest nodes per socket.
func labConfig() core.Config {
	p := dram.ProfileF()
	p.Transforms = addr.TransformConfig{}
	return core.Config{
		Geometry: geometry.Geometry{
			Sockets:         2,
			CoresPerSocket:  4,
			DIMMsPerSocket:  1,
			RanksPerDIMM:    2,
			BanksPerRank:    8,
			RowsPerBank:     2048,
			RowBytes:        8 * geometry.KiB,
			RowsPerSubarray: 512,
		},
		Profiles:      []dram.Profile{p},
		EPTProtection: ept.GuardRows,
	}
}

func main() {
	log.SetFlags(0)
	hv, err := core.Boot(labConfig(), core.ModeSiloz)
	if err != nil {
		log.Fatal(err)
	}
	proc := core.Process{CGroup: "kvm", KVMPrivileged: true}

	// Three tenants fill every guest group on socket 0.
	for _, name := range []string{"alice", "bob", "carol"} {
		if _, err := hv.CreateVM(proc, core.VMSpec{Name: name, Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
			log.Fatal(err)
		}
	}
	// Alice's guest has state worth preserving.
	alice, _ := hv.VM("alice")
	state := make([]byte, 2*geometry.PageSize2M)
	for i := range state {
		state[i] = byte(i*7) | 1
	}
	if err := alice.WriteGuest(0, state); err != nil {
		log.Fatal(err)
	}

	pending := core.VMSpec{Name: "dave", Socket: 0, MemoryBytes: 64 * geometry.MiB}
	if _, err := hv.CreateVM(proc, pending); err != nil {
		fmt.Printf("dave refused while socket 0 is full: %v\n", err)
	} else {
		log.Fatal("dave was admitted on a full socket — scenario broken")
	}

	// The engine migrates the planner's victim while its guest keeps
	// writing: every pre-copy round dirties one page, and the engine's
	// per-round audit proves no two tenants' domains ever overlap.
	hv.SetLifecycleProbe(func(e core.Event) {
		if r := e.Round; e.Kind == core.ProbeMigrateRound {
			fmt.Printf("  round %d: copied %d pages (%d KiB), %d dirtied behind it\n",
				r.Round, r.PagesCopied, r.BytesCopied/geometry.KiB, r.DirtyAfter)
		}
	})
	eng := migrate.NewEngine(hv)
	eng.Opt = core.MigrateOptions{
		StopPages: 1,
		GuestStep: func(round int) error {
			for i := range state[:geometry.PageSize4K] {
				state[i] = byte(i*13+round) | 1
			}
			return alice.WriteGuest(0, state[:geometry.PageSize4K])
		},
	}
	vm, reps, err := eng.AdmitWithRebalance(context.Background(), proc, pending)
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range reps {
		fmt.Printf("moved %q from nodes %v to %v: %d rounds, %d pages copied, stop-and-copy %d pages\n",
			rep.VM, rep.SourceNodes, rep.DestNodes, len(rep.Rounds), rep.PagesCopied, rep.DowntimePages)
	}
	fmt.Printf("dave admitted on socket %d after rebalancing\n", vm.Spec().Socket)

	// Alice's memory — including the writes made mid-flight — is intact.
	got := make([]byte, len(state))
	if err := alice.ReadGuest(0, got); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, state) {
		log.Fatal("alice's memory diverged across the migration")
	}
	if err := migrate.AuditIsolation(hv); err != nil {
		log.Fatal(err)
	}
	fmt.Println("=> guest bytes identical across the move; isolation invariant holds")
}

package fleet

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geometry"
)

func vmSpec(name string, bytes uint64) core.VMSpec {
	return core.VMSpec{
		Name: name, MemoryBytes: bytes, MinMemoryBytes: 64 * geometry.MiB, VCPUs: 1,
	}
}

// BenchmarkFleetAdmission measures steady-state admission throughput: one
// placement decision plus one create op under a host's lock, with the
// matching departure keeping the fleet at constant occupancy. This is the
// control-plane hot path the BENCH_*.json trajectory tracks for the fleet
// subsystem.
func BenchmarkFleetAdmission(b *testing.B) {
	ctx := context.Background()
	c, err := New(Config{Hosts: 2, Core: labCoreConfig(), Policy: SilozAware{}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	proc := core.Process{CGroup: "kvm", KVMPrivileged: true}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bench-%d", i)
		if _, err := c.Admit(ctx, proc, vmSpec(name, 128*geometry.MiB)); err != nil {
			b.Fatal(err)
		}
		op, err := c.SubmitDepart(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := op.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostSubmitWait measures the host's lock alone: an empty op
// through Submit and Wait on an idle host, run by the goroutine that
// submits it. Its one allocation is the Op.
func BenchmarkHostSubmitWait(b *testing.B) {
	ctx := context.Background()
	c, err := New(Config{Hosts: 1, Core: labCoreConfig()})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	h := c.Hosts()[0]
	noop := func() error { return nil }

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := h.Submit(noop)
		if err != nil {
			b.Fatal(err)
		}
		if err := op.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

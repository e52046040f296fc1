package core

import (
	"testing"

	"repro/internal/geometry"
)

var benchHPA uint64

// BenchmarkVMTranslate times the software TLB under every Runner.Issue and
// guest load/store: a warm hit, warm hits from parallel translators (reps of
// one benchmark VM share its TLB), and the refill after an invalidation (one
// table allocation plus an EPT walk per page of a 64 MiB guest).
func BenchmarkVMTranslate(b *testing.B) {
	h, err := Boot(testConfig(), ModeSiloz)
	if err != nil {
		b.Fatal(err)
	}
	const ramBytes = 64 * geometry.MiB
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "bench", Socket: 0, MemoryBytes: ramBytes})
	if err != nil {
		b.Fatal(err)
	}
	// A line-granular stride that visits every page of the guest.
	const stride = geometry.PageSize2M + geometry.CacheLineSize
	warm := func(b *testing.B) {
		for gpa := uint64(0); gpa < ramBytes; gpa += geometry.PageSize2M {
			if _, err := vm.Translate(gpa); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("hit", func(b *testing.B) {
		warm(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hpa, err := vm.Translate(uint64(i) * stride % ramBytes)
			if err != nil {
				b.Fatal(err)
			}
			benchHPA = hpa
		}
	})
	b.Run("hit-parallel", func(b *testing.B) {
		warm(b)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var gpa, sum uint64
			for pb.Next() {
				hpa, err := vm.Translate(gpa)
				if err != nil {
					b.Error(err)
					return
				}
				sum += hpa
				gpa = (gpa + stride) % ramBytes
			}
			_ = sum
		})
	})
	b.Run("miss-after-invalidate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vm.InvalidateTLB()
			warm(b)
		}
	})
}

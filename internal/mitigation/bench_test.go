package mitigation

import "testing"

// The benchmarks drive the observers with burst shapes matching what the
// memory controller emits on its hot path: single-activation misses
// spread over a working set of rows, with a nil RefreshFn (accounting
// only) to isolate observer cost from the caller's refresh handling.
//
// The table defenses are benched per case, because an ACT costs what its
// path through the table costs: evict-stream has every ACT untracked with
// the bank's table full (a streaming scan — each ACT is a full-table miss,
// a min-entry eviction and an insert); tracked-hit has every ACT find its
// row (the working set fits the table); threshold-fire has every ACT cross
// the threshold or interval, so each one injects refreshes and frees or
// clears entries.

func BenchmarkPARAObserve(b *testing.B) {
	m := NewPARA(DefaultPARAProbability, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.OnActivate(Activation{Bank: i & 15, Row: i & 1023, Count: 1}, nil)
	}
}

// observeCases runs one defense, built fresh per case, through the three
// named shapes. size is its table size; fire is a burst that crosses its
// threshold or interval in one call.
func observeCases(b *testing.B, build func() Mitigation, size, fire int) {
	const banks = 16
	for _, c := range []struct {
		name string
		ev   func(i int) Activation
	}{
		{"evict-stream", func(i int) Activation { return Activation{Bank: i & (banks - 1), Row: i & 1023, Count: 1} }},
		{"tracked-hit", func(i int) Activation { return Activation{Bank: i & (banks - 1), Row: i / banks % size, Count: 1} }},
		{"threshold-fire", func(i int) Activation { return Activation{Bank: i & (banks - 1), Row: i & 1023, Count: fire} }},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := build()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.OnActivate(c.ev(i), nil)
				if i&(1<<16-1) == 1<<16-1 {
					m.OnWindowEnd() // keeps tracked-hit counters below the threshold
				}
			}
		})
	}
}

func BenchmarkSilverBulletObserve(b *testing.B) {
	observeCases(b, func() Mitigation { return NewSilverBullet(16, DefaultSBTableSize, DefaultSBThreshold, 0) },
		DefaultSBTableSize, DefaultSBThreshold)
}

func BenchmarkTRRObserve(b *testing.B) {
	observeCases(b, func() Mitigation { return NewTRR(16, 4, 800) }, 4, 800)
}

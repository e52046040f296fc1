package experiments

import (
	"context"

	"repro/internal/addr"
	"repro/internal/geometry"
	"repro/internal/memctrl"
)

// dramaExp is the "drama" experiment: the §8.4 timing-side-channel study. An
// attacker times accesses to its own rows while a co-located victim is idle
// or active; a bank-conflict latency difference is a DRAMA-style channel.
// The probe runs under the default interleaved mapping (shared banks — used
// by both Siloz and the baseline) and under a bank-partitioned mapping where
// attacker and victim own disjoint banks; each row reports the attacker's
// mean probe latencies and the relative increase it observes.
func dramaExp(ctx context.Context, pool *Pool) (*Result, error) {
	return onPool(ctx, pool, func() (*Result, error) {
		g := geometry.Default()
		shared, err := addr.NewMapper(g, addr.KindSkylake)
		if err != nil {
			return nil, err
		}
		part, err := addr.NewPartitionedMapper(g, 2)
		if err != nil {
			return nil, err
		}
		r := &Result{
			Name:    "drama",
			Title:   "DRAM timing side channel (DRAMA, §8.4)",
			Columns: []string{"idle", "busy", "signal", "leaks"},
			Units:   []string{"ns", "ns", "%", ""},
		}
		for _, c := range []struct {
			name                     string
			mapper                   addr.Mapper
			attackerBase, victimBase uint64
			scalar, check            string
			wantLeak                 bool
			detail                   string
		}{
			// Shared banks: attacker in one subarray group, victim in
			// another — Rowhammer-isolated but bank-sharing.
			{"interleaved (Siloz/baseline)", shared, 0, 3 * geometry.GiB,
				"shared_signal_pct", "shared_banks_leak", true,
				"bank sharing preserves the DRAMA channel under Siloz"},
			// Partitioned: attacker in partition 0, victim in partition 1.
			{"bank-partitioned (future)", part, 0, uint64(g.SocketBytes() / 2),
				"partitioned_signal_pct", "partitioned_banks_silent", false,
				"bank-partitioned addressing closes the channel"},
		} {
			idle, err := dramaProbe(c.mapper, c.attackerBase, c.victimBase, false)
			if err != nil {
				return nil, err
			}
			busy, err := dramaProbe(c.mapper, c.attackerBase, c.victimBase, true)
			if err != nil {
				return nil, err
			}
			signalPct := 100 * (busy/idle - 1)
			leaks := signalPct > 2 // enough for the attacker to distinguish victim activity
			r.row(c.name, idle, busy, signalPct, leaks)
			r.scalar(c.scalar, signalPct)
			r.check(c.check, leaks == c.wantLeak, c.detail)
		}
		r.Notes = append(r.Notes,
			"Siloz's subarray groups stop Rowhammer but share banks, so the timing channel persists;",
			"bank-partitioned addressing (§8.4 future work) closes it.")
		return r, nil
	})
}

// dramaProbe measures the attacker's mean probe latency. The attacker
// alternates between two rows of one bank (guaranteed row conflicts against
// itself) while the victim, when active, streams over its own region.
func dramaProbe(mapper addr.Mapper, attackerBase, victimBase uint64, victimActive bool) (float64, error) {
	ctrl, err := memctrl.New(memctrl.Config{
		Mapper:    mapper,
		Timing:    memctrl.DDR4_2933(),
		MLPWindow: 4,
	})
	if err != nil {
		return 0, err
	}
	g := mapper.Geometry()
	rowStride := uint64(g.BanksPerSocket()) * geometry.CacheLineSize * uint64(g.RowBytes/geometry.CacheLineSize)
	// Two attacker addresses one row apart in the same bank.
	probeA := attackerBase
	probeB := attackerBase + rowStride

	const probes = 4000
	var attackerTotal float64
	for i := 0; i < probes; i++ {
		pa := probeA
		if i%2 == 1 {
			pa = probeB
		}
		_, observed, err := ctrl.DoTimed(memctrl.Access{PA: pa, ThinkNs: 50})
		if err != nil {
			return 0, err
		}
		attackerTotal += observed
		if victimActive {
			// The victim works on a hot structure (e.g. a database
			// page): its accesses alternate rows of one bank. Only
			// bank sharing lets that delay the attacker's requests.
			for v := 0; v < 3; v++ {
				vpa := victimBase
				if (i*3+v)%2 == 1 {
					vpa += rowStride
				}
				if _, err := ctrl.Do(memctrl.Access{PA: vpa}); err != nil {
					return 0, err
				}
			}
		}
	}
	return attackerTotal / probes, nil
}

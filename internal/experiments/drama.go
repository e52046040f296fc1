package experiments

import (
	"context"

	"repro/internal/addr"
	"repro/internal/geometry"
	"repro/internal/memctrl"
)

// DRAMARow is one configuration of the §8.4 timing-side-channel study: an
// attacker times accesses to its own rows while a co-located victim is idle
// or active; a bank-conflict latency difference is a DRAMA-style channel.
type DRAMARow struct {
	// Mapping names the address-mapping configuration.
	Mapping string
	// IdleNs and BusyNs are the attacker's mean probe latencies with the
	// victim idle vs active.
	IdleNs, BusyNs float64
	// SignalPct is the relative latency increase the attacker observes.
	SignalPct float64
}

// Leaks reports whether the attacker can distinguish victim activity.
func (r DRAMARow) Leaks() bool { return r.SignalPct > 2 }

// dramaExp is the "drama" experiment: the §8.4 timing side channel.
func dramaExp(ctx context.Context, pool *Pool) (*Result, error) {
	rows, err := onPool(ctx, pool, DRAMAStudy)
	if err != nil {
		return nil, err
	}
	r := &Result{
		Name:    "drama",
		Title:   "DRAM timing side channel (DRAMA, §8.4)",
		Columns: []string{"idle", "busy", "signal", "leaks"},
		Units:   []string{"ns", "ns", "%", ""},
	}
	for _, row := range rows {
		r.row(row.Mapping, row.IdleNs, row.BusyNs, row.SignalPct, row.Leaks())
		switch row.Mapping {
		case "interleaved (Siloz/baseline)":
			r.scalar("shared_signal_pct", row.SignalPct)
			r.check("shared_banks_leak", row.Leaks(),
				"bank sharing preserves the DRAMA channel under Siloz")
		case "bank-partitioned (future)":
			r.scalar("partitioned_signal_pct", row.SignalPct)
			r.check("partitioned_banks_silent", !row.Leaks(),
				"bank-partitioned addressing closes the channel")
		}
	}
	r.Notes = append(r.Notes,
		"Siloz's subarray groups stop Rowhammer but share banks, so the timing channel persists;",
		"bank-partitioned addressing (§8.4 future work) closes it.")
	return r, nil
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

// DRAMAStudy runs the probe under the default interleaved mapping (shared
// banks — used by both Siloz and the baseline) and under a bank-partitioned
// mapping where attacker and victim own disjoint banks.
func DRAMAStudy() ([]DRAMARow, error) {
	g := geometry.Default()
	var out []DRAMARow

	shared, err := addr.NewMapper(g, addr.KindSkylake)
	if err != nil {
		return nil, err
	}
	part, err := addr.NewPartitionedMapper(g, 2)
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name                     string
		mapper                   addr.Mapper
		attackerBase, victimBase uint64
	}{
		// Shared banks: attacker in one subarray group, victim in
		// another — Rowhammer-isolated but bank-sharing.
		{"interleaved (Siloz/baseline)", shared, 0, 3 * geometry.GiB},
		// Partitioned: attacker in partition 0, victim in partition 1.
		{"bank-partitioned (future)", part, 0, uint64(g.SocketBytes() / 2)},
	}
	for _, c := range cases {
		idle, err := dramaProbe(c.mapper, c.attackerBase, c.victimBase, false)
		if err != nil {
			return nil, err
		}
		busy, err := dramaProbe(c.mapper, c.attackerBase, c.victimBase, true)
		if err != nil {
			return nil, err
		}
		out = append(out, DRAMARow{
			Mapping:   c.name,
			IdleNs:    idle,
			BusyNs:    busy,
			SignalPct: 100 * (busy/idle - 1),
		})
	}
	return out, nil
}

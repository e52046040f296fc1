package attack

// The one attack harness. Every lifecycle campaign and every mitigation
// trial runs on a machine: a hypervisor with the attacker tenant and its
// confined target, the victim tenant once admitted, and the scorecard the
// run fills in. Every flip is classified by AttributeFlips, and every
// stamped victim byte is checked by checkStamps.

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/geometry"
)

// scorecard is the tally every attack run keeps, campaign or trial.
type scorecard struct {
	// HammerBursts counts aggressor bursts landed.
	HammerBursts int
	// FlipLedger attributes every flip of the run; containment failed iff
	// Escapes() > 0.
	FlipLedger
	// Denied counts attacker operations and probes the machine refused.
	Denied int
	// VictimCorruptions counts stamped victim bytes that diverged.
	VictimCorruptions int
}

func (s *scorecard) add(o scorecard) {
	s.HammerBursts += o.HammerBursts
	s.FlipLedger.add(o.FlipLedger)
	s.Denied += o.Denied
	s.VictimCorruptions += o.VictimCorruptions
}

// tally attributes every flip h has recorded since the last tally and clears
// the record, so each round scores against the ownership map it ran under.
func (s *scorecard) tally(h *core.Hypervisor, attacker *core.VM, victims ...*core.VM) error {
	l, err := AttributeFlips(h, attacker, victims...)
	if err != nil {
		return err
	}
	s.FlipLedger.add(l)
	h.Memory().ResetFlips()
	return nil
}

// checkStamps counts the stamped bytes — GPA to the bytes written there —
// that no longer read back from vm.
func (s *scorecard) checkStamps(vm *core.VM, stamps map[uint64][]byte) error {
	for gpa, want := range stamps {
		got := make([]byte, len(want))
		if err := vm.ReadGuest(gpa, got); err != nil {
			return err
		}
		for i := range got {
			if got[i] != want[i] {
				s.VictimCorruptions++
			}
		}
	}
	return nil
}

// FlipLedger attributes every flip a machine has recorded to the memory it
// corrupted. AttackerFlips landed in the attacker's own memory — self-damage
// the threat model tolerates. GuardFlips landed in memory a defense
// deliberately sacrificed (CATT guard bands, Siloz/EPT guard rows, offlined
// pages) — absorbed by design. VictimFlips landed in another tenant's memory
// and StrayFlips anywhere else (free pool, host structures); both are
// containment failures.
type FlipLedger struct {
	AttackerFlips, GuardFlips, VictimFlips, StrayFlips int
}

func (l *FlipLedger) add(o FlipLedger) {
	l.AttackerFlips += o.AttackerFlips
	l.GuardFlips += o.GuardFlips
	l.VictimFlips += o.VictimFlips
	l.StrayFlips += o.StrayFlips
}

// Escapes counts flips outside both the attacker's memory and the defense's
// sacrificial guard capacity — the corruption a deployed mitigation exists
// to prevent.
func (l FlipLedger) Escapes() int { return l.VictimFlips + l.StrayFlips }

// Outside counts every flip that left the attacker's own memory.
func (l FlipLedger) Outside() int { return l.GuardFlips + l.VictimFlips + l.StrayFlips }

// AttributeFlips classifies every flip h's memory has recorded against the
// machine's current ownership map. It is the one flip-attribution routine:
// trials, campaigns and the CLIs all account containment through it. A nil
// VM is one absent from h — with no attacker, every flip is outside.
func AttributeFlips(h *core.Hypervisor, attacker *core.VM, victims ...*core.VM) (FlipLedger, error) {
	var l FlipLedger
	guard := map[uint64]bool{}
	for _, vm := range append([]*core.VM{attacker}, victims...) {
		if vm == nil {
			continue
		}
		for _, pa := range vm.GuardPages() {
			guard[pa] = true
		}
	}
	owns := func(vm *core.VM, pa uint64) bool { return vm != nil && (vm.OwnsHPA(pa) || vm.InDomain(pa)) }
	offlined := h.OfflinedRanges()
	mem := h.Memory()
flips:
	for _, f := range mem.Flips() {
		pa, err := mem.FlipPhys(f)
		if err != nil {
			return l, err
		}
		if owns(attacker, pa) {
			l.AttackerFlips++
			continue
		}
		for _, v := range victims {
			if owns(v, pa) {
				l.VictimFlips++
				continue flips
			}
		}
		if guard[pa&^uint64(geometry.PageSize2M-1)] {
			l.GuardFlips++
			continue
		}
		for _, r := range offlined {
			if r.Contains(pa) {
				l.GuardFlips++
				continue flips
			}
		}
		l.StrayFlips++
	}
	return l, nil
}

// machine is the harness every campaign and trial runs on.
type machine struct {
	h                *core.Hypervisor
	vmBytes          uint64
	attacker, victim *core.VM
	target           Target
	// rng picks a campaign burst's aggressors.
	rng  *rand.Rand
	card *scorecard
}

// newMachine admits the attacker onto h — socket 0, vmBytes of RAM — and
// builds the harness around it, filling card.
func newMachine(h *core.Hypervisor, vmBytes uint64, card *scorecard) (*machine, error) {
	m := &machine{h: h, vmBytes: vmBytes, card: card}
	var err error
	if m.attacker, err = m.admit("attacker"); err != nil {
		return nil, err
	}
	m.target = &VMTarget{VM: m.attacker}
	return m, nil
}

// admit creates a tenant of the attacker's size beside it.
func (m *machine) admit(name string) (*core.VM, error) {
	return m.h.CreateVM(core.KVMProcess(), core.VMSpec{Name: name, Socket: 0, MemoryBytes: m.vmBytes})
}

// infer runs the attacker's mapping inference: it derives and confirms row
// adjacency inside its own domain before spending hammer budget. Inference
// flips are its own, so the flip record starts clean afterwards.
func (m *machine) infer(seed int64) (*AdjacencyReport, error) {
	rep, err := InferAdjacency(m.target, campaignHammerActs, campaignInferPairs, 0xAA, CampaignSeed(seed, 2))
	if err != nil {
		return nil, err
	}
	m.h.Memory().ResetFlips()
	return rep, nil
}

// burst is one Blacksmith salvo inside a lifecycle window: campaignBurstRows
// seeded aggressors at full amplitude, then the refresh window closes.
func (m *machine) burst() {
	rows := m.target.Rows()
	if len(rows) == 0 {
		return
	}
	for k := 0; k < campaignBurstRows; k++ {
		if err := m.target.Hammer(rows[m.rng.Intn(len(rows))], campaignHammerActs, 0); err != nil {
			m.card.Denied++
		}
	}
	m.card.HammerBursts++
	m.target.EndWindow()
}

// stampVictim writes the victim's working set — a seeded 8 KiB stamp at the
// head of each of its four lowest 2 MiB pages — and returns it for
// checkStamps.
func (m *machine) stampVictim(seed int64) (map[uint64][]byte, error) {
	stamps := map[uint64][]byte{}
	for p := 0; p < 4; p++ {
		gpa := uint64(p) * geometry.PageSize2M
		stamps[gpa] = campaignStamp(CampaignSeed(seed, 10+p), 8*geometry.KiB)
		if err := m.victim.WriteGuest(gpa, stamps[gpa]); err != nil {
			return nil, err
		}
	}
	return stamps, nil
}

// settle attributes every flip recorded since the last tally against the
// machine's current ownership map.
func (m *machine) settle() error { return m.card.tally(m.h, m.attacker, m.victim) }

// campaignStamp yields a deterministic payload for victim data.
func campaignStamp(seed int64, n int) []byte {
	b := make([]byte, n)
	rngFrom(seed).Read(b)
	return b
}

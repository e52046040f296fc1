package mitigation

import (
	"fmt"
)

// Kind names one mitigation family.
type Kind int

const (
	// KindNone is the undefended baseline (in-DRAM TRR only when the
	// DIMM profile provides it).
	KindNone Kind = iota
	// KindPARA is probabilistic adjacent-row activation: every
	// activation refreshes the aggressor's neighbourhood with a small
	// probability p.
	KindPARA
	// KindSilverBullet is counter-based victim-row refresh: per-bank
	// aggressor counters trigger a proactive neighbourhood refresh at a
	// threshold, with safe eviction when the table fills and an optional
	// per-window refresh budget (whose exhaustion blinds the defense).
	KindSilverBullet
	// KindCATT is software-only isolation by allocation policy: guard
	// bands of unallocatable rows between tenant memory extents, wide
	// enough to absorb the blast radius.
	KindCATT
	// KindSiloz is the paper's subarray-group isolation: each tenant's
	// unmediated memory confined to private subarray groups exposed as
	// logical NUMA nodes, with boundary guard rows offlined.
	KindSiloz
)

// String returns the kind's registry/report name.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindPARA:
		return "para"
	case KindSilverBullet:
		return "silver-bullet"
	case KindCATT:
		return "catt"
	case KindSiloz:
		return "siloz"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds lists every kind in canonical (matrix-row) order.
func Kinds() []Kind {
	return []Kind{KindNone, KindPARA, KindSilverBullet, KindCATT, KindSiloz}
}

// ParseKind resolves a kind name; unknown names wrap ErrUnsupported.
func ParseKind(name string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown kind %q", ErrUnsupported, name)
}

// scopeSeedSalt spaces per-scope seeds, matching the experiment
// scheduler's per-rep salt so streams never collide across layers.
const scopeSeedSalt = 7919

// ScopeSeed derives the deterministic seed for one attachment scope (one
// DRAM module, one controller run) from a spec's base seed.
func ScopeSeed(base int64, scope int) int64 { return base + int64(scope)*scopeSeedSalt }

// Spec is a buildable mitigation configuration: the kind plus its tuning
// parameters. The zero value is KindNone. Specs are plain data so they can
// sit in core.Config and experiment configs without import cycles.
type Spec struct {
	// Kind selects the mitigation family.
	Kind Kind
	// Seed bases every per-scope RNG stream (PARA's coin flips).
	Seed int64

	// PARAProbability is PARA's per-activation refresh probability p;
	// 0 means DefaultPARAProbability.
	PARAProbability float64

	// SBTableSize is Silver Bullet's per-bank counter-table capacity;
	// 0 means DefaultSBTableSize.
	SBTableSize int
	// SBThreshold is the counter value that triggers a proactive
	// neighbourhood refresh; 0 means DefaultSBThreshold. It must sit
	// well below the DIMM's Rowhammer threshold.
	SBThreshold float64
	// SBRefreshBudget caps proactive refreshes per bank per refresh
	// window; 0 keeps the budget unlimited, negative is invalid. A
	// too-small budget reproduces the counter-exhaustion edge case.
	SBRefreshBudget int

	// CATTGuardRows is the guard band width in DRAM rows on each side of
	// a tenant extent; 0 means DefaultCATTGuardRows (the modelled blast
	// radius).
	CATTGuardRows int
}

// Default tuning values.
const (
	DefaultPARAProbability = 1.0 / 500
	DefaultSBTableSize     = 16
	DefaultSBThreshold     = 1250
	DefaultCATTGuardRows   = 2
)

// WithDefaults fills zero tuning fields with their defaults.
func (s Spec) WithDefaults() Spec {
	if s.PARAProbability == 0 {
		s.PARAProbability = DefaultPARAProbability
	}
	if s.SBTableSize == 0 {
		s.SBTableSize = DefaultSBTableSize
	}
	if s.SBThreshold == 0 {
		s.SBThreshold = DefaultSBThreshold
	}
	if s.CATTGuardRows == 0 {
		s.CATTGuardRows = DefaultCATTGuardRows
	}
	return s
}

// Name returns the spec's row label.
func (s Spec) Name() string { return s.Kind.String() }

// Validate rejects out-of-range tuning values.
func (s Spec) Validate() error {
	s = s.WithDefaults()
	switch s.Kind {
	case KindNone, KindPARA, KindSilverBullet, KindCATT, KindSiloz:
	default:
		return fmt.Errorf("%w: %v", ErrUnsupported, s.Kind)
	}
	if s.PARAProbability <= 0 || s.PARAProbability > 1 {
		return fmt.Errorf("mitigation: PARA probability %v out of (0,1]", s.PARAProbability)
	}
	if s.SBTableSize < 1 {
		return fmt.Errorf("mitigation: Silver Bullet table size must be >= 1, got %d", s.SBTableSize)
	}
	if s.SBThreshold <= 0 {
		return fmt.Errorf("mitigation: Silver Bullet threshold must be positive, got %v", s.SBThreshold)
	}
	if s.SBRefreshBudget < 0 {
		return fmt.Errorf("mitigation: Silver Bullet refresh budget must be >= 0, got %d", s.SBRefreshBudget)
	}
	if s.CATTGuardRows < 1 {
		return fmt.Errorf("mitigation: CATT guard rows must be >= 1, got %d", s.CATTGuardRows)
	}
	return nil
}

// HasRowDefense reports whether the kind acts on the activation plane
// (builds per-scope RowDefense instances).
func (s Spec) HasRowDefense() bool {
	return s.Kind == KindPARA || s.Kind == KindSilverBullet
}

// GuardsAllocations reports whether the kind acts on the allocation plane
// by reserving guard bands around tenant extents (CATT).
func (s Spec) GuardsAllocations() bool { return s.Kind == KindCATT }

// IsolatesSubarrayGroups reports whether the kind is the Siloz allocation
// policy: subarray-group isolation domains with boundary guard rows.
func (s Spec) IsolatesSubarrayGroups() bool { return s.Kind == KindSiloz }

// RowDefense builds the activation-plane instance for a scope of banks,
// seeded by seed (derive it with ScopeSeed so parallel scopes stay
// deterministic). KindNone returns (nil, nil): nothing to attach. Pure
// allocation-plane kinds return ErrUnsupported — they have no activation
// hook, and asking for one is a caller bug the sentinel makes typed. A spec
// that fails Validate builds nothing.
func (s Spec) RowDefense(banks int, seed int64) (Mitigation, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.WithDefaults()
	if banks <= 0 {
		return nil, fmt.Errorf("mitigation: scope must have at least one bank, got %d", banks)
	}
	switch s.Kind {
	case KindNone:
		return nil, nil
	case KindPARA:
		return NewPARA(s.PARAProbability, seed), nil
	case KindSilverBullet:
		return NewSilverBullet(banks, s.SBTableSize, s.SBThreshold, s.SBRefreshBudget), nil
	default:
		return nil, fmt.Errorf("%w: %v has no activation-plane row defense", ErrUnsupported, s.Kind)
	}
}

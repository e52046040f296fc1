package mitigation

import "fmt"

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

// Spec is a buildable mitigation configuration: the kind and the seed of
// its random streams; every kind runs at its Default* tuning. The zero
// value is KindNone. Specs are plain data so they can sit in core.Config
// and experiment configs without import cycles.
type Spec struct {
	// Kind selects the mitigation family.
	Kind Kind
	// Seed bases every per-scope RNG stream (PARA's coin flips).
	Seed int64
}

// Default tuning values: PARA's per-activation refresh probability p,
// Silver Bullet's per-bank counter-table capacity and refresh threshold
// (well below the DIMM's Rowhammer threshold; RowDefense leaves its
// refresh budget unlimited), and CATT's guard band width in DRAM rows on
// each side of a tenant extent (the modelled blast radius).
const (
	DefaultPARAProbability = 1.0 / 500
	DefaultSBTableSize     = 16
	DefaultSBThreshold     = 1250
	DefaultCATTGuardRows   = 2
)

// Name returns the spec's row label.
func (s Spec) Name() string { return s.Kind.String() }

// Validate rejects an unknown kind.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindNone, KindPARA, KindSilverBullet, KindCATT, KindSiloz:
		return nil
	}
	return fmt.Errorf("%w: %v", ErrUnsupported, s.Kind)
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
	if banks <= 0 {
		return nil, fmt.Errorf("mitigation: scope must have at least one bank, got %d", banks)
	}
	switch s.Kind {
	case KindNone:
		return nil, nil
	case KindPARA:
		return NewPARA(DefaultPARAProbability, seed), nil
	case KindSilverBullet:
		return NewSilverBullet(banks, DefaultSBTableSize, DefaultSBThreshold, 0), nil
	default:
		return nil, fmt.Errorf("%w: %v has no activation-plane row defense", ErrUnsupported, s.Kind)
	}
}

// Package mitigation defines the pluggable Rowhammer-defense interface the
// simulation threads through its memory-controller/DRAM/allocator boundary,
// plus reference implementations of the competitors the Siloz paper argues
// against: PARA-style probabilistic neighbour refresh, Silver Bullet
// counter-based victim-row refresh (with its counter-exhaustion edge
// cases), CATT-style guard-banded software isolation, and the in-DRAM TRR
// sampler that previously lived inside dram.Module.
//
// A mitigation acts on one or both of two planes:
//
//   - The activation plane: the defense observes row-activation bursts
//     (OnActivate) at whatever scope it is attached to — a DRAM module's
//     banks, or a memory controller's flat bank space — and may inject
//     victim-neighbourhood refreshes back through the caller-supplied
//     RefreshFn. The DRAM model applies injected refreshes by clearing
//     accumulated disturbance; the memory controller charges them as bank
//     busy time, which is how refresh energy becomes visible slowdown.
//   - The allocation plane: the defense constrains VM placement. CATT
//     reserves guard bands between tenant extents; Siloz partitions
//     subarray groups into isolation domains. Spec exposes these as
//     capability predicates the hypervisor consults at boot and CreateVM.
//
// Implementations are deliberately not safe for concurrent use: the
// simulation attaches one instance per single-goroutine scope (one module,
// one controller run), mirroring how per-bank hardware state is private to
// its memory controller.
package mitigation

// Activation is one observed burst of row activations: Count back-to-back
// activations of media row Row in flat bank Bank, each holding the row
// open OpenNs nanoseconds (RowPress exposure). The bank index is dense
// within the attached scope — rank*banksPerRank+bank for a DRAM module,
// the controller's flattened socket-wide index for memctrl.
type Activation struct {
	Bank   int
	Row    int
	Count  int
	OpenNs int64
}

// RefreshFn receives victim-refresh directives from a mitigation: restore
// the charge of every row in the blast-radius neighbourhood of media row
// row in bank bank. Callers may pass nil when they only want overhead
// accounting (the directive is still counted by the mitigation).
//
// The order of directives within one OnActivate call is unspecified — a
// table defense emits them in whatever order its table holds the rows — so
// a sink must be order-independent: its state after a call may depend on
// the multiset of directives only. Both sinks in this repository are:
// dram.Module's only deletes disturbance entries, memctrl.Controller's adds
// one constant of bank busy time per directive.
type RefreshFn func(bank, row int)

// Mitigation is the activation-plane contract. OnActivate fires on every
// row-buffer miss (controller scope) or activation burst (module scope);
// OnWindowEnd fires when a 64 ms refresh window turns over, after which
// all per-window state (counters, budgets) must reset.
type Mitigation interface {
	// Name identifies the mitigation in reports ("para", "trr", ...).
	Name() string
	// OnActivate observes one burst and may inject neighbour refreshes.
	OnActivate(ev Activation, refresh RefreshFn)
	// OnWindowEnd closes the current refresh window.
	OnWindowEnd()
	// Overhead reports the cost the mitigation has accrued so far.
	Overhead() Overhead
	// Health is nil while the defense is intact; a degraded defense (e.g.
	// a Silver Bullet table past its refresh budget) returns an error
	// wrapping ErrBudgetExhausted.
	Health() error
}

// Overhead is the running cost ledger of one mitigation instance. The
// protection-vs-overhead matrix aggregates it across scopes.
type Overhead struct {
	// NeighborRefreshes counts injected victim-neighbourhood refresh
	// directives — the refresh-energy axis.
	NeighborRefreshes int
	// Exhaustions counts refresh-budget exhaustion events: windows in
	// which the defense went blind because it hit its refresh cap.
	Exhaustions int
	// BlockedBytes is capacity the mitigation makes unallocatable (guard
	// bands, offlined rows); activation-plane defenses leave it zero.
	BlockedBytes uint64
}

// Add accumulates o2 into o.
func (o *Overhead) Add(o2 Overhead) {
	o.NeighborRefreshes += o2.NeighborRefreshes
	o.Exhaustions += o2.Exhaustions
	o.BlockedBytes += o2.BlockedBytes
}

// Chain fans one observation stream out to several mitigations (a module's
// built-in TRR plus an attached experimental defense). It reports the sum
// of their overheads and the first degraded member's health.
type Chain []Mitigation

// Name implements Mitigation.
func (c Chain) Name() string {
	if len(c) == 1 {
		return c[0].Name()
	}
	name := "chain"
	for _, m := range c {
		name += "+" + m.Name()
	}
	return name
}

// OnActivate implements Mitigation.
func (c Chain) OnActivate(ev Activation, refresh RefreshFn) {
	for _, m := range c {
		m.OnActivate(ev, refresh)
	}
}

// OnWindowEnd implements Mitigation.
func (c Chain) OnWindowEnd() {
	for _, m := range c {
		m.OnWindowEnd()
	}
}

// Overhead implements Mitigation.
func (c Chain) Overhead() Overhead {
	var o Overhead
	for _, m := range c {
		o.Add(m.Overhead())
	}
	return o
}

// Health implements Mitigation.
func (c Chain) Health() error {
	for _, m := range c {
		if err := m.Health(); err != nil {
			return err
		}
	}
	return nil
}

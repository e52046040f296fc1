package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/migrate"
)

// SchedulerConfig tunes the rebalancing scheduler.
type SchedulerConfig struct {
	// DirtyPages is the modeled guest write activity injected during each
	// cross-host move's pre-copy (makes stop-and-copy non-empty).
	// Default 8.
	DirtyPages int
	// Seed derives each move's dirty-injection stream.
	Seed int64
}

const (
	// highWatermark is the owned-node fraction above which a host is hot
	// and sheds VMs.
	highWatermark = 0.75
	// maxCrossMoves bounds cross-host migrations per round.
	maxCrossMoves = 4
	// maxDefragMoves bounds each host's intra-host defragmentation moves
	// per round.
	maxDefragMoves = 2
)

func (cfg *SchedulerConfig) normalize() {
	if cfg.DirtyPages < 0 {
		cfg.DirtyPages = 0
	} else if cfg.DirtyPages == 0 {
		cfg.DirtyPages = 8
	}
}

// Scheduler drains hot hosts and defragments the rest, batching decisions
// through each host's migrate.Planner/Engine and the cluster's placement
// policy.
type Scheduler struct {
	c     *Cluster
	cfg   SchedulerConfig
	moves int64 // lifetime cross-move counter, seeds dirty injection
}

// NewScheduler builds a scheduler over the cluster.
func NewScheduler(c *Cluster, cfg SchedulerConfig) *Scheduler {
	cfg.normalize()
	return &Scheduler{c: c, cfg: cfg}
}

// RebalanceReport summarizes one scheduler round.
type RebalanceReport struct {
	// HotHosts counts hosts over the high watermark at round start.
	HotHosts int
	// CrossMoves / CrossMoveBytes / DowntimeBytes cover this round's
	// cross-host evictions.
	CrossMoves     int
	CrossMoveBytes uint64
	DowntimeBytes  uint64
	// DefragMoves counts intra-host defragmentation migrations.
	DefragMoves int
	// SkippedVMs counts eviction candidates passed over (unmovable or no
	// destination).
	SkippedVMs int
}

// evictionCandidate is one VM a hot host could shed.
type evictionCandidate struct {
	name       string
	guestBytes uint64
	nodes      int
	movable    bool
}

// Round runs one rebalancing pass: shed VMs from hot hosts to the policy's
// choice of non-hot destinations (smallest VMs first — cheapest copies,
// fastest node release), then give every host a bounded defragmentation
// pass. Every move and pass has finished when it returns.
func (s *Scheduler) Round(ctx context.Context) (*RebalanceReport, error) {
	rep := &RebalanceReport{}
	m, err := s.c.Metrics()
	if err != nil {
		return nil, err
	}
	owned := map[string]int{}
	total := map[string]int{}
	hot := map[string]bool{}
	for _, hm := range m.Hosts {
		owned[hm.Host] = hm.OwnedNodes
		total[hm.Host] = hm.GuestNodes
		if hm.Utilization() > highWatermark {
			hot[hm.Host] = true
			rep.HotHosts++
		}
	}

	if rep.HotHosts > 0 && rep.HotHosts < len(s.c.hosts) {
		views, err := s.c.Views()
		if err != nil {
			return nil, err
		}
		budget := maxCrossMoves
		for _, h := range s.c.hosts {
			if !hot[h.Name()] || budget == 0 {
				continue
			}
			for _, cand := range s.candidates(h) {
				if budget == 0 {
					break
				}
				util := float64(owned[h.Name()]) / float64(total[h.Name()])
				if util <= highWatermark {
					break // shed enough
				}
				if !cand.movable {
					rep.SkippedVMs++
					continue
				}
				req := Request{Name: cand.name, GuestBytes: cand.guestBytes, ExcludeHosts: hot}
				p, err := s.c.policy.Place(req, views)
				if err != nil {
					if errors.Is(err, ErrNoPlacement) {
						rep.SkippedVMs++
						continue // fleet too full to shed this one
					}
					return rep, err
				}
				s.moves++
				mv, err := s.c.MoveVM(ctx, cand.name, p.Host, p.Socket,
					s.cfg.DirtyPages, s.cfg.Seed+s.moves*7919)
				if err != nil {
					return rep, fmt.Errorf("fleet: rebalance %q: %w", cand.name, err)
				}
				rep.CrossMoves++
				rep.CrossMoveBytes += mv.BytesCopied
				rep.DowntimeBytes += mv.DowntimeBytes
				budget--
				owned[h.Name()] -= cand.nodes
				Consume(views, p, cand.guestBytes)
			}
		}
	}

	// Defragmentation: every host, bounded, in boot order, one op at a
	// time so planner decisions see settled state.
	for _, h := range s.c.hosts {
		var reps []*core.MigrateReport
		err := ctx.Err()
		if err == nil {
			err = done(h.Submit(func() (err error) {
				reps, err = h.engine.Defragment(ctx, maxDefragMoves)
				return err
			}))
		}
		if err != nil {
			return rep, fmt.Errorf("fleet: defrag %s: %w", h.Name(), err)
		}
		for _, r := range reps {
			rep.DefragMoves++
			s.c.mu.Lock()
			s.c.stats.DefragMoves++
			s.c.stats.MigratedBytes += r.BytesCopied
			s.c.stats.DowntimeBytes += r.DowntimeBytes
			s.c.mu.Unlock()
		}
	}
	return rep, nil
}

// candidates lists a host's VMs smallest-first (ties by name) with
// movability marked: VMs with extra regions cannot move cross-host, and a
// VM mid-move is already leaving.
func (s *Scheduler) candidates(h *Host) []evictionCandidate {
	var out []evictionCandidate
	for _, vm := range h.Hypervisor().VMs() {
		spec := vm.Spec()
		s.c.mu.Lock()
		_, inFlight := s.c.moving[spec.Name]
		s.c.mu.Unlock()
		out = append(out, evictionCandidate{
			name:       spec.Name,
			guestBytes: migrate.GuestBytes(spec),
			nodes:      len(vm.Nodes()),
			movable:    len(spec.Regions) == 0 && !inFlight,
		})
	}
	slices.SortFunc(out, func(a, b evictionCandidate) int {
		return cmp.Or(cmp.Compare(a.guestBytes, b.guestBytes), cmp.Compare(a.name, b.name))
	})
	return out
}

package main

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/workload"
)

// streamDefenses are the three controllers every stream runs under.
var streamDefenses = []mitigation.Kind{mitigation.KindNone, mitigation.KindPARA, mitigation.KindSilverBullet}

// streamWorkloads are the cache-defeating streams: the five MLC read/write
// ratios of Fig. 5 plus terasort's scan/shuffle/merge mix.
func streamWorkloads() []workload.Workload {
	return append(workload.AllMLC(), workload.Terasort{})
}

// streamOps is the ops argument handed to each Workload.Generate.
func streamOps(sz size) int {
	if sz == sizeSmoke {
		return 4_000
	}
	return 100_000
}

// streamDefense builds a fresh defense instance of one kind for stream si
// (nil for no defense).
func streamDefense(h *core.Hypervisor, kind mitigation.Kind, seed int64, si int) (mitigation.Mitigation, error) {
	spec := mitigation.Spec{Kind: kind}
	return spec.RowDefense(h.Memory().Geometry().TotalBanks(), mitigation.ScopeSeed(salted(seed, saltDefense), si))
}

// newStreamController builds the fresh controller one (stream, defense) pair
// runs on. Activation tracking is on, as in the ACT-rate experiments.
func newStreamController(h *core.Hypervisor, d mitigation.Mitigation) (*memctrl.Controller, error) {
	return newController(h.Memory().Mapper(), 0, true, d)
}

// streamWorld is one stream-defended trial: the serve-lab host with tenant
// t0, whose RAM every stream runs over with no cache in front.
type streamWorld struct {
	h    *core.Hypervisor
	vm   *core.VM
	seed int64
	ops  int
	// results[stream][defense], kept for the correctness gates.
	results [][]memctrl.Result
}

func buildStream(seed int64, sz size, _ *tracer) (world, error) {
	h, err := bootServeHost(64 * geometry.MiB)
	if err != nil {
		return nil, err
	}
	vm, _ := h.VM("t0")
	return &streamWorld{h: h, vm: vm, seed: seed, ops: streamOps(sz)}, nil
}

func (w *streamWorld) run(_ context.Context) (*outcome, error) {
	o := &outcome{sim: map[string]float64{}, layer: map[string]float64{}}
	var b strings.Builder
	var logGbps, simNs float64
	var accesses, hits, refreshes int
	for si, wl := range streamWorkloads() {
		row := make([]memctrl.Result, len(streamDefenses))
		for di, kind := range streamDefenses {
			d, err := streamDefense(w.h, kind, w.seed, si)
			if err != nil {
				return nil, err
			}
			ctrl, err := newStreamController(w.h, d)
			if err != nil {
				return nil, err
			}
			res, err := workload.RunOnVM(w.vm, ctrl, nil, wl, w.ops, salted(w.seed, saltStream)+int64(si))
			if err != nil {
				o.failed++
			}
			row[di] = res
			o.ops += int64(res.Accesses)
			accesses += res.Accesses
			hits += res.RowHits
			refreshes += res.MitigationRefreshes
			simNs += res.TotalNs
			logGbps += math.Log(res.ThroughputGBs())
			fmt.Fprintf(&b, "%s/%s %v peak=%d refreshes=%d\n", wl.Name(), kind, res, res.PeakRowACTs, res.MitigationRefreshes)
		}
		w.results = append(w.results, row)
	}
	n := float64(len(w.results) * len(streamDefenses))
	o.sim["sim_gbps"] = math.Exp(logGbps / n)
	o.layer["memctrl.row_hit_frac"] = float64(hits) / float64(accesses)
	o.layer["memctrl.sim_ns_per_access"] = simNs / float64(accesses)
	o.layer["memctrl.mitigation_refreshes_per_kaccess"] = 1e3 * float64(refreshes) / float64(accesses)
	o.report = b.String()
	return o, nil
}

func (w *streamWorld) check(o *outcome) error {
	if o.failed != 0 {
		return fmt.Errorf("%d streams returned an error", o.failed)
	}
	for si, row := range w.results {
		for di, r := range row {
			if r.Accesses == 0 || r.Reads+r.Writes != r.Accesses || r.RowHits+r.RowMisses != r.Accesses {
				return fmt.Errorf("stream %d defense %v: inconsistent counts %+v", si, streamDefenses[di], r)
			}
			if r.Accesses != row[0].Accesses || r.Writes != row[0].Writes {
				return fmt.Errorf("stream %d: defense %v saw a different access stream than no defense", si, streamDefenses[di])
			}
			// A defense only ever adds bank busy time.
			if r.TotalNs < row[0].TotalNs {
				return fmt.Errorf("stream %d: defense %v finished sooner (%.0f ns) than no defense (%.0f ns)",
					si, streamDefenses[di], r.TotalNs, row[0].TotalNs)
			}
		}
		if row[0].MitigationRefreshes != 0 {
			return fmt.Errorf("stream %d: %d mitigation refreshes with no defense attached", si, row[0].MitigationRefreshes)
		}
	}
	return nil
}

func (w *streamWorld) close() { w.h.Shutdown() }

var streamDefended = &workloadDef{
	name:   "stream-defended",
	op:     "access",
	why:    "Throughput path of Figs. 4-7 with no cache: every access pays addr decode, memctrl.Controller and mitigation.OnActivate under no defense, PARA and Silver Bullet; serve, stats and Cache are bypassed.",
	build:  buildStream,
	ladder: streamLadder,
}

// streamLadder captures each stream once and replays it layer by layer:
// Workload.Generate, VM.Translate, Mapper.Decode, then Controller.DoTimed
// under each defense; the activation stream the defense is fed is recorded on
// an untimed pass and replayed through a fresh instance and a rowcount table
// alone.
func streamLadder(_ context.Context, seed int64, sz size, tr *tracer, layer map[string]float64) error {
	h, err := bootServeHost(64 * geometry.MiB)
	if err != nil {
		return err
	}
	defer h.Shutdown()
	vm, _ := h.VM("t0")
	region := vm.Spec().MemoryBytes
	mapper := h.Memory().Mapper()

	var failed firstErr
	var accs []workload.Access
	var hpas []uint64
	var mas []geometry.MediaAddr
	issue := func(ctrl *memctrl.Controller, i int) {
		_, _, err := ctrl.DoTimed(memctrl.Access{PA: hpas[i], Write: accs[i].Write, ThinkNs: accs[i].ThinkNs})
		failed.note(err)
	}
	refreshes, acts := map[string]float64{}, map[string]float64{}
	for si, wl := range streamWorkloads() {
		accs, hpas = accs[:0], hpas[:0]
		tr.rung("workload", "generate", streamOps(sz), func() {
			wl.Generate(region, streamOps(sz), salted(seed, saltStream)+int64(si), func(a workload.Access) bool {
				accs = append(accs, a)
				return true
			})
		})
		batches(len(accs), func(lo, hi int) {
			tr.rung("core", "translate", hi-lo, func() {
				for _, a := range accs[lo:hi] {
					hpa, err := vm.Translate(a.Offset % region)
					failed.note(err)
					hpas = append(hpas, hpa)
				}
			})
		})
		batches(len(hpas), func(lo, hi int) {
			mas = mas[:0]
			tr.rung("addr", "decode", hi-lo, func() {
				for _, hpa := range hpas[lo:hi] {
					ma, err := mapper.Decode(hpa)
					failed.note(err)
					mas = append(mas, ma)
				}
			})
			if si > 0 || lo > 0 {
				return
			}
			// Rungs beside the access path, one batch each: the uncached
			// EPT walk a TLB miss pays, and Encode.
			tr.rung("ept", "walk", hi-lo, func() {
				for _, a := range accs[lo:hi] {
					_, err := vm.TranslateUncached(a.Offset % region)
					failed.note(err)
				}
			})
			tr.rung("addr", "encode", len(mas), func() {
				for _, ma := range mas {
					_, err := mapper.Encode(ma)
					failed.note(err)
				}
			})
		})
		for _, kind := range streamDefenses {
			d, err := streamDefense(h, kind, seed, si)
			if err != nil {
				return err
			}
			ctrl, err := newStreamController(h, d)
			if err != nil {
				return err
			}
			name := "ctrl_defended"
			if d == nil {
				name = "ctrl"
			}
			batches(len(hpas), func(lo, hi int) {
				tr.rung("memctrl", name, hi-lo, func() {
					for i := lo; i < hi; i++ {
						issue(ctrl, i)
					}
				})
			})
			// An untimed second pass records the activation stream the
			// defense is fed (recording would inflate the timed rung); with
			// no defense an empty chain stands in for one.
			rec := &recordingDefense{Mitigation: mitigation.Chain(nil)}
			if d != nil {
				if rec.Mitigation, err = streamDefense(h, kind, seed, si); err != nil {
					return err
				}
			}
			capture, err := newStreamController(h, rec)
			if err != nil {
				return err
			}
			for i := range hpas {
				issue(capture, i)
			}
			if d == nil {
				rowcountRung(tr, rec.acts)
				continue
			}
			fresh, err := streamDefense(h, kind, seed, si)
			if err != nil {
				return err
			}
			refreshes[kind.String()] += observeRung(tr, kind.String(), fresh, rec.acts) * float64(len(rec.acts))
			acts[kind.String()] += float64(len(rec.acts))
		}
	}
	for kind, n := range acts {
		if n > 0 {
			layer["mitigation.refreshes_per_kact."+kind] = refreshes[kind] / n
		}
	}
	if failed.err != nil {
		return fmt.Errorf("stream ladder: %w", failed.err)
	}
	return nil
}

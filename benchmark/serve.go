package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/memctrl"
	"repro/internal/migrate"
	"repro/internal/mitigation"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// serveGeometry is the serve lab box: per socket one host node, one EPT
// node and three 64 MiB guest nodes.
func serveGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets: 2, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 8, RowsPerBank: 2048, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

// labProfile strips the DRAM row transforms so subarray groups form without
// padding; Rowhammer susceptibility is irrelevant on the serving and fleet
// workloads.
func labProfile() dram.Profile {
	p := dram.ProfileF()
	p.Transforms = addr.TransformConfig{}
	return p
}

const (
	serveSLONs = 50_000
	// serverThinkNs and llcWays are serve's own defaults, set explicitly so
	// that the run and the ladder's replay share one value.
	serverThinkNs = 250
	llcWays       = 16
)

var kvmProc = core.Process{CGroup: "kvm", KVMPrivileged: true}

// serveShape is what differs between the two serving workloads.
type serveShape struct {
	churn       bool
	tenantBytes uint64
	durationNs  float64
	tenants     []serve.TenantSpec
	cacheBytes  int64
	events      int // evenly spaced churn events
}

func serveQuietShape(sz size) serveShape {
	s := serveShape{
		tenantBytes: 64 * geometry.MiB,
		durationNs:  1e9,
		tenants: []serve.TenantSpec{
			{VM: "t0", Clients: 4, ThinkNs: 20_000, ValueBytes: 1024, ReadFrac: 0.95, ServerThinkNs: serverThinkNs},
			{VM: "t1", TargetQPS: 100_000, ValueBytes: 1024, ReadFrac: 0.95, ServerThinkNs: serverThinkNs},
		},
		cacheBytes: 32 * geometry.MiB,
	}
	if sz == sizeSmoke {
		s.durationNs = 20e6
	}
	return s
}

func serveChurnShape(sz size) serveShape {
	s := serveShape{
		churn: true,
		// Small guests whose every page holds data: each migration then
		// copies the same bytes whichever pages the seed dirties, so host
		// cost and memory per request compare across seeds.
		tenantBytes: 16 * geometry.MiB,
		durationNs:  1e9,
		tenants: []serve.TenantSpec{
			{VM: "t0", TargetQPS: 50_000, ValueBytes: 4096, ReadFrac: 0.5, ServerThinkNs: serverThinkNs},
			{VM: "t1", TargetQPS: 50_000, ValueBytes: 4096, ReadFrac: 0.5, ServerThinkNs: serverThinkNs},
		},
		cacheBytes: 1 * geometry.MiB,
		events:     16,
	}
	if sz == sizeSmoke {
		s.durationNs, s.events = 20e6, 5
	}
	return s
}

// churnSchedule spaces the shape's control-plane events evenly over the
// horizon: first rounds of migrate out, migrate back, defrag; then t0 shrinks
// and grows back in turn. The resizes come last because a grow hands the
// guest fresh zero pages: a migration after it would copy more or fewer bytes
// depending on whether the seed's dirtied page is one of them.
func churnSchedule(s serveShape) []serve.Event {
	moves := []serve.Event{
		{Kind: serve.EventMigrate, Tenant: "t0", DestSocket: 1, DirtyPages: 1},
		{Kind: serve.EventMigrate, Tenant: "t0", DestSocket: 0, DirtyPages: 1},
		{Kind: serve.EventDefrag, Tenant: "t0", MaxMoves: 2},
	}
	resizes := []serve.Event{
		{Kind: serve.EventResize, Tenant: "t0", TargetBytes: s.tenantBytes / 2},
		{Kind: serve.EventResize, Tenant: "t0", TargetBytes: s.tenantBytes},
	}
	out := make([]serve.Event, s.events)
	for i := range out {
		if i < s.moveEvents() {
			out[i] = moves[i%len(moves)]
		} else {
			out[i] = resizes[(i-s.moveEvents())%len(resizes)]
		}
		out[i].AtNs = s.durationNs * float64(i+1) / float64(s.events+1)
	}
	return out
}

// moveEvents is how many of the shape's events are migrations and defrags:
// whole rounds of three, a little over half the schedule.
func (s serveShape) moveEvents() int { return 3 * (s.events / 5) }

// endsShrunk reports whether the schedule leaves t0 at half size.
func (s serveShape) endsShrunk() bool { return (s.events-s.moveEvents())%2 == 1 }

// bootServeHost boots the Siloz serve-lab host with both tenants created.
func bootServeHost(tenantBytes uint64) (*core.Hypervisor, error) {
	h, err := core.BootMitigated(core.Config{
		Geometry:      serveGeometry(),
		Profiles:      []dram.Profile{labProfile()},
		EPTProtection: ept.GuardRows,
		Mitigation:    mitigation.Spec{Kind: mitigation.KindSiloz},
	})
	if err != nil {
		return nil, err
	}
	for socket, name := range []string{"t0", "t1"} {
		if _, err := h.CreateVM(kvmProc, core.VMSpec{Name: name, Socket: socket, MemoryBytes: tenantBytes}); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
	}
	return h, nil
}

// stationDefense builds the Silver Bullet instance each station controller
// of serve-churn carries.
func stationDefense(seed int64, socket int) mitigation.Mitigation {
	spec := mitigation.Spec{Kind: mitigation.KindSilverBullet}
	d, err := spec.RowDefense(serveGeometry().TotalBanks(), mitigation.ScopeSeed(salted(seed, saltDefense), socket))
	if err != nil {
		panic(err) // a valid default spec cannot fail
	}
	return d
}

// serveWorld is one serving trial: a freshly booted host, two tenants, and a
// constructed (not yet run) serve.Loop. Host and LLC construction are
// set-up, so the timed region is serving alone.
type serveWorld struct {
	shape serveShape
	h     *core.Hypervisor
	loop  *serve.Loop
	free0 uint64 // free guest bytes before serving, for conservation
	rep   *serve.Report
	// stations, on a traced trial, digest what each socket's station
	// controller activated, for the ladder to hold its replay against.
	stations map[int]*digestingDefense
}

func buildServe(shape serveShape, seed int64, tr *tracer) (world, error) {
	h, err := bootServeHost(shape.tenantBytes)
	if err != nil {
		return nil, err
	}
	if shape.churn {
		if err := stampTenants(h, seed); err != nil {
			return nil, err
		}
	}
	w := &serveWorld{shape: shape, h: h, free0: freeGuestBytes(h)}
	cfg := serveConfig(shape, h, seed)
	if tr != nil {
		w.stations = map[int]*digestingDefense{}
		defense := cfg.Mitigation
		cfg.Mitigation = func(host string, socket int) mitigation.Mitigation {
			// With no defense an empty chain stands in for one: it injects
			// nothing, so the simulated results stay those of the untraced run.
			d := &digestingDefense{Mitigation: mitigation.Chain(nil)}
			if defense != nil {
				d.Mitigation = defense(host, socket)
			}
			w.stations[socket] = d
			return d
		}
	}
	if w.loop, err = serve.New(cfg); err != nil {
		return nil, err
	}
	return w, nil
}

// stampTenants writes a few seeded bytes into every page of both tenants, so
// every page is resident data that migrations must carry and scrubs must
// clear.
func stampTenants(h *core.Hypervisor, seed int64) error {
	rng := rand.New(rand.NewSource(salted(seed, saltStamp)))
	stamp := make([]byte, 64)
	for _, vm := range h.VMs() {
		for gpa := uint64(0); gpa < vm.Spec().MemoryBytes; gpa += geometry.PageSize2M {
			rng.Read(stamp)
			if err := vm.WriteGuest(gpa, stamp); err != nil {
				return err
			}
		}
	}
	return nil
}

// freeGuestBytes sums free capacity over the host's guest-reserved nodes.
func freeGuestBytes(h *core.Hypervisor) uint64 {
	var free uint64
	occ, err := migrate.NewPlanner(h).Occupancy()
	if err != nil {
		return 0
	}
	for _, o := range occ {
		free += o.FreeBytes
	}
	return free
}

func (w *serveWorld) run(ctx context.Context) (*outcome, error) {
	rep, err := w.loop.Run(ctx)
	if err != nil {
		return nil, err
	}
	o := &outcome{
		ops:    rep.Requests,
		failed: rep.Errors,
		sim: map[string]float64{
			"sim_p50_us": rep.Total.P50() / 1e3,
			"sim_p99_us": rep.Total.P99() / 1e3,
			// Errors count as misses: a failed request met no limit.
			"sim_slo_miss_frac": float64(rep.Violations+rep.Errors) / float64(rep.Requests),
		},
		layer: map[string]float64{"serve.window_count": float64(len(rep.Windows))},
	}
	for _, t := range rep.Tenants {
		o.layer["serve.requests."+t.VM] = float64(t.Requests)
	}
	for socket, d := range w.stations {
		o.layer[fmt.Sprintf("serve.acts.%d", socket)] = float64(d.n)
		o.layer[fmt.Sprintf("serve.act_prefix.%d", socket)] = float64(d.sum >> 11) // 53 bits: exact in a float64
	}
	var b strings.Builder
	b.WriteString(rep.String())
	fmt.Fprintf(&b, "total %v\n", rep.Total)
	var blackoutNs float64
	for _, win := range rep.Windows {
		if win.Err != "" {
			o.failed++
		}
		blackoutNs += win.BlackoutNs
		fmt.Fprintf(&b, "window %s copied=%d downtime=%d probes=%v\n", win.Label, win.BytesCopied, win.DowntimeBytes, win.Probes)
	}
	if w.shape.churn {
		o.sim["sim_downtime_ms"] = blackoutNs / 1e6
	}
	o.report = b.String()
	w.rep = rep
	return o, nil
}

func (w *serveWorld) check(o *outcome) error {
	if o.failed != 0 {
		return fmt.Errorf("%d requests or churn events failed:\n%s", o.failed, o.report)
	}
	for i, t := range w.rep.Tenants {
		spec := w.shape.tenants[i]
		if spec.TargetQPS > 0 {
			if want := int64(w.shape.durationNs * spec.TargetQPS / 1e9); t.Requests != want {
				return fmt.Errorf("tenant %s served %d requests, open loop offered %d", t.VM, t.Requests, want)
			}
		}
	}
	if bad := w.h.Audit(); len(bad) > 0 {
		return fmt.Errorf("core.Audit: %s", strings.Join(bad, "; "))
	}
	if err := migrate.AuditIsolation(w.h); err != nil {
		return err
	}
	// Capacity conservation: the schedule ends with t0 at a known size, so
	// free guest capacity is determined.
	want := w.free0
	if w.shape.endsShrunk() {
		want += w.shape.tenantBytes / 2
	}
	if got := freeGuestBytes(w.h); got != want {
		return fmt.Errorf("guest capacity not conserved: %d free bytes after serving, want %d", got, want)
	}
	return nil
}

func (w *serveWorld) close() { w.h.Shutdown() }

var serveQuiet = &workloadDef{
	name:   "serve-quiet",
	op:     "request",
	why:    "Request path with a 32 MiB LLC absorbing ~88% of accesses: workload gen, core translate, memctrl.Cache, stats and the serve heap dominate; one closed-loop tenant (callers wait), one open-loop.",
	build:  func(seed int64, sz size, tr *tracer) (world, error) { return buildServe(serveQuietShape(sz), seed, tr) },
	ladder: serveLadder(serveQuietShape),
}

var serveChurn = &workloadDef{
	name:   "serve-churn",
	op:     "request",
	why:    "Same host, 16 MiB guests, 4 KiB values at 50% writes, 1 MiB LLC, Silver Bullet on each controller, 16 resize/migrate/defrag events: a third of lines reach controller and defense; window scans live.",
	build:  func(seed int64, sz size, tr *tracer) (world, error) { return buildServe(serveChurnShape(sz), seed, tr) },
	ladder: serveLadder(serveChurnShape),
}

// serveConfig is the serve.Config of one trial on host h.
func serveConfig(shape serveShape, h *core.Hypervisor, seed int64) serve.Config {
	cfg := serve.Config{
		Hypervisor: h,
		Tenants:    shape.tenants,
		DurationNs: shape.durationNs,
		SLONs:      serveSLONs,
		Seed:       salted(seed, saltServe),
		CacheBytes: shape.cacheBytes,
		CacheWays:  llcWays,
	}
	if shape.churn {
		cfg.Mitigation = func(_ string, socket int) mitigation.Mitigation { return stationDefense(seed, socket) }
		cfg.Churn = churnSchedule(shape)
	}
	return cfg
}

// serveCovered are the rungs whose self times make up a served request as
// far as the ladder can see it from outside; serve.loop_self_ns_per_req is
// what remains (the request heap, blackout and window scans, runner
// bookkeeping). addr.decode is left out: the controller rung decodes itself.
var serveCovered = []string{
	"workload.gen", "core.translate", "memctrl.cache", "memctrl.ctrl",
	"mitigation.observe.silver-bullet", "stats.record",
	"core.resize", "core.migrate", "migrate.defrag",
}

// serveLadder replays each tenant's request stream — regenerated from the
// run's own seed, as many requests as the run served — through the public
// functions workload.Runner.Issue calls, in its order: KVRequests.Next,
// VM.Translate, Cache.Access, Mapper.Decode, Controller.DoTimed,
// Histogram.Record; one span per layer per batch. For serve-churn it then
// replays the churn schedule through the lifecycle functions serve's events
// call.
func serveLadder(shapeFor func(size) serveShape) func(context.Context, int64, size, *tracer, map[string]float64) error {
	return func(ctx context.Context, seed int64, sz size, tr *tracer, layer map[string]float64) error {
		shape := shapeFor(sz)
		h, err := bootServeHost(shape.tenantBytes)
		if err != nil {
			return err
		}
		defer h.Shutdown()
		mapper := h.Memory().Mapper()
		cfg := serveConfig(shape, h, seed)

		// serve.New: the LLC and station construction setup_s absorbs.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr.rung("serve", "new", 1, func() { _, err = serve.New(cfg) })
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		layer["serve.new_allocs"] = float64(after.Mallocs - before.Mallocs)

		var (
			accs                                         []workload.Access
			hpas                                         []uint64
			missIdx                                      []int
			mas                                          []geometry.MediaAddr
			failed                                       firstErr
			requests, accesses, cacheHits, cacheMisses   int64
			ctrlAccesses, rowHits, refreshes, actsReplay int
			simNs, refreshPerKact                        float64
		)
		total := stats.NewHistogram()
		for ti, spec := range shape.tenants {
			vm, _ := h.VM(spec.VM)
			region := vm.Spec().MemoryBytes
			// The generator seed is serve.New's own derivation; the activation
			// digests below fail the ladder if the two ever part.
			gen := workload.NewKVRequests(region, spec.ValueBytes, spec.ReadFrac, spec.ServerThinkNs, cfg.Seed+7919*int64(ti)+1)
			cache, err := memctrl.NewCache(shape.cacheBytes, llcWays)
			if err != nil {
				return err
			}
			newCtrl := func(d mitigation.Mitigation) (*memctrl.Controller, error) {
				return newController(mapper, ti, false, d)
			}
			ctrl, err := newCtrl(nil)
			if err != nil {
				return err
			}
			// Beside the timed controllers (bare, and defended under churn) the
			// stream runs untimed through one whose defense records the
			// activations it is fed (recording would inflate a timed rung);
			// with no defense an empty chain stands in for one.
			rec := &recordingDefense{Mitigation: mitigation.Chain(nil)}
			var defended *memctrl.Controller
			if shape.churn {
				if defended, err = newCtrl(stationDefense(seed, ti)); err != nil {
					return err
				}
				rec.Mitigation = stationDefense(seed, ti)
			}
			capture, err := newCtrl(rec)
			if err != nil {
				return err
			}
			hist := stats.NewHistogram()
			want := int(layer["serve.requests."+spec.VM])
			perBatch := max(1, batchAccesses/int(2+spec.ValueBytes/geometry.CacheLineSize))
			for done := 0; done < want; {
				n := min(perBatch, want-done)
				accs, hpas, missIdx, mas = accs[:0], hpas[:0], missIdx[:0], mas[:0]
				tr.rung("workload", "gen", n, func() {
					for i := 0; i < n; i++ {
						accs = append(accs, gen.Next()...)
					}
				})
				tr.rung("core", "translate", len(accs), func() {
					for _, a := range accs {
						hpa, err := vm.Translate(a.Offset % region)
						failed.note(err)
						hpas = append(hpas, hpa)
					}
				})
				tr.rung("memctrl", "cache", len(hpas), func() {
					for i, hpa := range hpas {
						if !cache.Access(hpa) {
							missIdx = append(missIdx, i)
						}
					}
				})
				tr.rung("addr", "decode", len(missIdx), func() {
					for _, i := range missIdx {
						ma, err := mapper.Decode(hpas[i])
						failed.note(err)
						mas = append(mas, ma)
					}
				})
				for _, c := range []struct {
					name string
					ctrl *memctrl.Controller
				}{{"ctrl", ctrl}, {"ctrl_defended", defended}} {
					if c.ctrl == nil {
						continue
					}
					tr.rung("memctrl", c.name, len(missIdx), func() {
						for _, i := range missIdx {
							_, _, err := c.ctrl.DoTimed(memctrl.Access{PA: hpas[i], Write: accs[i].Write, ThinkNs: accs[i].ThinkNs})
							failed.note(err)
						}
					})
				}
				for _, i := range missIdx {
					_, _, err := capture.DoTimed(memctrl.Access{PA: hpas[i], Write: accs[i].Write, ThinkNs: accs[i].ThinkNs})
					failed.note(err)
				}
				tr.rung("stats", "record", 2*n, func() {
					for i := 0; i < n; i++ {
						lat := float64(600 + i%4096)
						hist.Record(lat)
						total.Record(lat)
					}
				})
				if done == 0 && ti == 0 {
					// Rungs beside the request path, one batch each: the
					// uncached EPT walk a TLB miss pays, and Encode.
					tr.rung("ept", "walk", len(accs), func() {
						for _, a := range accs {
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
				}
				done += n
				requests += int64(n)
				accesses += int64(len(accs))
			}
			// The replay must be the stream the traced trial served. Tenant ti
			// boots on socket ti, so its station there activated the same
			// rows: all of them on a quiet run, the first actPrefix under
			// churn (later ones depend on where the events had moved t0).
			var replayed actDigest
			for _, ev := range rec.acts {
				replayed.add(ev)
			}
			ranN, ranSum := layer[fmt.Sprintf("serve.acts.%d", ti)], layer[fmt.Sprintf("serve.act_prefix.%d", ti)]
			if float64(replayed.sum>>11) != ranSum || (shape.churn && min(float64(replayed.n), ranN) < actPrefix) || (!shape.churn && float64(replayed.n) != ranN) {
				return fmt.Errorf("serve ladder: tenant %s: the replay activated %d rows (prefix digest %x), the run's station %.0f (%x): not the stream the run served",
					spec.VM, replayed.n, replayed.sum>>11, ranN, uint64(ranSum))
			}
			cacheHits += cache.Hits()
			cacheMisses += cache.Misses()
			res := ctrl.Result()
			if defended != nil {
				res = defended.Result()
				rate := observeRung(tr, "silver-bullet", stationDefense(seed, ti), rec.acts)
				refreshPerKact += rate * float64(len(rec.acts))
				actsReplay += len(rec.acts)
			}
			ctrlAccesses += res.Accesses
			rowHits += res.RowHits
			refreshes += res.MitigationRefreshes
			simNs += res.TotalNs
		}
		if failed.err != nil {
			return fmt.Errorf("serve ladder: %w", failed.err)
		}
		tr.rung("stats", "quantile", 1, func() { _ = total.Quantile(0.99) })

		layer["workload.accesses_per_req"] = float64(accesses) / float64(max(requests, 1))
		layer["memctrl.cache_hit_frac"] = float64(cacheHits) / float64(max(cacheHits+cacheMisses, 1))
		if ctrlAccesses > 0 {
			layer["memctrl.row_hit_frac"] = float64(rowHits) / float64(ctrlAccesses)
			layer["memctrl.sim_ns_per_access"] = simNs / float64(ctrlAccesses)
			layer["memctrl.mitigation_refreshes_per_kaccess"] = 1e3 * float64(refreshes) / float64(ctrlAccesses)
		}
		if actsReplay > 0 {
			layer["mitigation.refreshes_per_kact.silver-bullet"] = refreshPerKact / float64(actsReplay)
		}
		if shape.churn {
			// The churn schedule, through the lifecycle functions its events
			// call, then the DRAM copy/scrub path those functions sit on.
			var steps []lifeStep
			for _, ev := range churnSchedule(shape) {
				steps = append(steps, lifeStep{kind: string(ev.Kind), vm: ev.Tenant, bytes: ev.TargetBytes, socket: ev.DestSocket})
			}
			if err := lifecycleLadder(ctx, tr, h, seed, steps); err != nil {
				return err
			}
			if err := microLadder(tr, h); err != nil {
				return err
			}
		}
		// The covered rungs were replayed for as many requests as one trial
		// served, so their sum per request compares with host_ns_per_op.
		rungs := tr.rungs()
		var covered int64
		for _, k := range serveCovered {
			covered += rungs[k].ns
		}
		perReq := float64(covered) / float64(requests)
		layer["serve.ladder_coverage_frac"] = perReq / layer["host_ns_per_op"]
		layer["serve.loop_self_ns_per_req"] = layer["host_ns_per_op"] - perReq
		return nil
	}
}

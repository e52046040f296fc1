# Development targets for the Siloz reproduction.

GO ?= go

.PHONY: all build loc vet fmt-check test test-short race race-quick fuzz-quick bench bench-micro bench-out-is-new bench-check bench-quick text-phase evaluation evaluation-check golden golden-check examples tools check verify clean

all: check

build:
	$(GO) build ./...

# Non-test Go lines per package under internal/ and cmd/, and their total:
# the one number a net-negative-lines claim is checked against (CI prints it).
# The last line is the experiment package's exported surface — the registry
# API plus the parameter types — so growth there stays visible too.
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./internal/... ./cmd/...); do \
		printf '%6d %s\n' $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l) $${d#$(CURDIR)/}; \
	done | awk '{s += $$1; print} END {printf "%6d total\n", s}'
	@printf '%6d exported identifiers in internal/experiments\n' $$($(GO) doc -short ./internal/experiments | wc -l)

# Static analysis gate.
vet:
	$(GO) vet ./...

# gofmt cleanliness gate (gofmt -l prints misformatted files; any output
# fails the target).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test -shuffle=on ./...

test-short:
	$(GO) test -short ./...

# Whole suite under the race detector (slow; the experiment scheduler's
# parallel fan-out is the interesting surface).
race:
	$(GO) test -race ./...

# Quick suite under the race detector: the scheduler, determinism and
# cancellation tests that exercise every parallel path, plus the
# balloon/resize/registry lifecycle tests that hammer the reservation paths
# from concurrent VMs, the frame-sourcing and layout-commit rollback table, the
# random-op layout-agreement check and the three commit-failure regressions,
# the grow-versus-migration race over the registry and allocators, the
# live-writer migrations that race the bulk data path's row locks from both
# sockets, writers and whole-stripe scrubbers sharing one row arena across
# DIMMs and sockets, copies, reads and scrubs reading the row census without a
# lock while such writers change it, the row-to-row copy under a line-flipping writer and under two
# cross-host moves in opposite directions (with the two cost-follows-data
# tests), fleet ops run by the goroutines that submit them (one at a time
# per host, under the host's lock), the cross-host move under a live writer, against direct layout
# operations on its source and failed at every step (fleet's unwind, core's
# MoveOut), the lock-free TLB's coherence across every layout commit
# (-count=10: the race it pins needs a translator caught mid-walk), one
# tenant's window ends beside another's mediated accesses (the refresh-window
# index is read under the lock Refresh advances it under), EPT walkers beside
# run edits of the leaves they walk (a span is one hold of the entry lock)
# with the relocation unwind table and the mid-run leaf-fault table, the
# serving loop beside resizes driven from outside it, and the lifecycle
# campaigns, whose fleet window probe runs on the goroutine that submits the
# move's source op.
race-quick:
	$(GO) test -race -run 'TestParallelDeterminism|TestRunAll|TestPoolMap|TestCancellation|TestRepSeed|TestRegistry|TestRenderers|TestSharedFlags|TestResolveTable|TestSelect|TestSweepHelpers' ./internal/experiments
	$(GO) test -race ./cmd/siloz
	$(GO) test -race -run 'TestConcurrentBalloonLifecycle|TestConcurrentResizeGrowShrink|TestConcurrentHammerResize|TestConcurrentMitigationHammerResize|TestConcurrentWriterDuringMigration|TestConcurrentOppositeMigrations|TestConcurrentGrowVersusMigration|TestFrameSourcingRollsBackAtEveryStep|TestPreviewResizeMatchesResize|TestLayoutViewsAgree|TestMigrateRegionLegFaultKeepsSourceFrames|TestMigrateDeviceSyncFaultRollsBack|TestInflateUnmapFaultRestoresLeaves|TestMigrationCostFollowsDataHeld|TestWindowEndRacesMediatedAccess|TestMoveOutFailsCleanlyAtEveryStep|TestSyncLeavesFaultMidRun|TestProbeSwapsWhileOpsRun' ./internal/core
	$(GO) test -race -count=10 -run 'TestTLBCoherentAcrossLifecycle' ./internal/core
	$(GO) test -race -run 'TestCopyNeverTearsALine|TestRowArenaConcurrentWritersAndScrubbers|TestCensusRacesCopyScrubAndRead' ./internal/dram
	$(GO) test -race -run 'TestWalkersSeeWholeEntriesDuringRunEdits|TestRelocateUnwindsAtEveryStep|TestRelocateSeesDestroyAtEveryStep' ./internal/ept
	$(GO) test -race -run 'TestConcurrentExpandShrinkExclusive' ./internal/numa
	$(GO) test -race -run 'TestEPTRelocationProperty' ./internal/migrate
	$(GO) test -race -timeout 5m -run 'TestConcurrentFleetChurn|TestSubmitRunsOneOpAtATime|TestCrossHostMoveCostFollowsDataHeld|TestOpposingCrossHostMovesDoNotDeadlock|TestConcurrentWriterDuringCrossHostMove|TestCrossHostMoveHoldsTheLatch|TestMoveUnwindsAtEveryStep' ./internal/fleet
	$(GO) test -race -run 'TestGenerateEarlyStopDeterminism' ./internal/workload
	$(GO) test -race -run 'TestConcurrentServeResize' ./internal/serve
	$(GO) test -race -run 'TestRunCampaignContainment|TestRunCampaignDeterministic' ./internal/attack

# The differential fuzzers — each drives a fast path against the reference
# implementation it replaced, the buddy free list against its old heap, the
# dense cgroup registry against its old maps and the linear range algebra
# against its old pairwise loops among them — the buddy
# allocator's sequence fuzzer
# (conservation, disjointness, and double frees and frees of never-allocated
# blocks refused with the state unchanged) and the lifecycle fuzzer (op
# sequences on a Siloz host: audit, views, containment, refusals and the
# lifecycle events checked after every op), for FUZZTIME apiece. `go test
# -fuzz` takes one target and one package per run, hence one run per
# FUZZ_TARGETS entry (target:package). Each prints one line, the target's
# last progress line with its exec count; a failing target prints its whole
# output and stops the run with its exit status.
# New corpus entries land in the package's testdata/fuzz only on a failure.
FUZZTIME ?= 10s
FUZZ_TARGETS := \
	FuzzMapperFastPathEquivalence:./internal/addr \
	FuzzStripeMatchesDecode:./internal/addr \
	FuzzCopyMatchesReadThenWrite:./internal/dram \
	FuzzDisturbanceMatchesReference:./internal/dram \
	FuzzCacheMatchesReference:./internal/memctrl \
	FuzzAggressorTableMatchesReference:./internal/mitigation \
	FuzzRunMatchesPerLine:./internal/workload \
	FuzzTableEditsMatchPerEntry:./internal/ept \
	FuzzBuddySequences:./internal/alloc \
	FuzzFreeListMatchesHeap:./internal/alloc \
	FuzzRegistryMatchesMap:./internal/numa \
	FuzzRangeAlgebraMatchesRetired:./internal/subarray \
	FuzzLifecycle:./internal/core
fuzz-quick:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		out=$$($(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg 2>&1); status=$$?; \
		if [ $$status -ne 0 ]; then printf '%s\n' "$$out"; echo "fuzz-quick: $$name ($$pkg) failed"; exit $$status; fi; \
		printf '%-36s %s\n' "$$name" "$$(printf '%s\n' "$$out" | grep 'execs:' | tail -n 1)"; \
	done

# Packages with substrate microbenchmarks (address decode, the memory
# controller, the DRAM module, the attack plane, the EPT, the buddy
# allocator, the planner's occupancy read, the cgroup registry, the
# subarray layout build) — the hot paths the BENCH_*.json baseline tracks. The registry benches in the repo
# root (bench_test.go) are not listed: `make bench` runs them, over ./...
BENCH_PKGS := ./internal/addr ./internal/alloc ./internal/core ./internal/ept ./internal/memctrl ./internal/dram ./internal/rowcount ./internal/fleet ./internal/mitigation ./internal/workload ./internal/serve ./internal/attack ./internal/migrate ./internal/numa ./internal/subarray
# Every capture is a new point of the trajectory: bench and bench-micro refuse
# to overwrite an existing BENCH_$(BENCH_DATE).json. For a second point on the
# same day pass a suffix that sorts after the date, e.g. BENCH_DATE=2026-09-30b
# (bench-check picks the newest baseline by sorted filename).
BENCH_DATE ?= $(shell date +%F)
BENCH_OUT := BENCH_$(BENCH_DATE).json
# Latest committed baseline by date-sorted filename.
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))

# Full benchmark sweep: every table/figure plus per-substrate microbenches,
# captured into a dated JSON baseline (min ns/op across -count runs).
bench: bench-out-is-new
	$(GO) test -run '^$$' -bench=. -benchmem -count=3 ./... | $(GO) run ./cmd/siloz perf -o $(BENCH_OUT)

# Microbench-only capture: the substrate hot paths, quick enough to run on
# every perf-relevant change.
bench-micro: bench-out-is-new
	$(GO) test -run '^$$' -bench=. -benchmem -count=3 $(BENCH_PKGS) | $(GO) run ./cmd/siloz perf -o $(BENCH_OUT)

bench-out-is-new:
	@if [ -e $(BENCH_OUT) ]; then \
		echo "$(BENCH_OUT) exists and baselines are never overwritten; for another point today pass BENCH_DATE=$$(date +%F)b (then c, ...)"; exit 1; fi

# Regression gate: rerun the microbenches against the newest committed
# BENCH_*.json. An allocs/op rise beyond max(1, 2%) fails; a >20% ns/op
# slowdown is printed as a warning only (single captures on a shared machine
# swing further than that on untouched code).
bench-check:
	$(GO) test -run '^$$' -bench=. -benchmem -count=2 $(BENCH_PKGS) | $(GO) run ./cmd/siloz perf -check $(BENCH_BASELINE) -tolerance 20

bench-quick:
	$(GO) run ./cmd/siloz bench -quick

# Cache-line phase of the attack plane's hot DRAM functions in the benchmark
# binary: each one's address mod 64 (the linker aligns functions to 32 bytes,
# so it reads 0 or 32). A shift of it alone has moved hammer-contain's
# host_ns_per_op by 3-9 %, so compare it with the parent's before reading a
# hammer-contain timing change. Only code linked ahead of internal/dram can
# shift it: the standard library and geometry, addr, subarray, alloc and
# mitigation.
TEXT_PHASE_SYMS := repro/internal/dram\.(\(\*Module\)\.ActivateRow|\(\*Module\)\.disturbNeighbours|\(\*Memory\)\.ActivatePhys)$$
text-phase:
	@set -e; bin=$$(mktemp); trap 'rm -f "$$bin"' EXIT; \
	$(GO) build -o "$$bin" ./benchmark; \
	syms=$$($(GO) tool nm -n "$$bin" | grep -E ' $(TEXT_PHASE_SYMS)' || true); \
	if [ $$(printf '%s\n' "$$syms" | grep -c .) -ne 3 ]; then \
		echo "text-phase: the three hot dram functions are not all in the binary" >&2; exit 1; fi; \
	printf '%s\n' "$$syms" | while read addr kind name; do \
		printf '%-48s %s  mod 64 = %d\n' "$$name" "$$addr" $$((0x$$addr % 64)); done

# Regenerate the paper's evaluation at full scale (minutes). stdout is the
# diffable record; progress and timing go to stderr.
evaluation:
	$(GO) run ./cmd/siloz bench -exp all > evaluation_output.txt

# The full-scale text oracle: the committed evaluation_output.txt, compared
# byte for byte (under a minute on two cores). After an intended output change,
# regenerate with `make evaluation` and explain the diff.
evaluation-check:
	$(GO) run ./cmd/siloz bench -exp all | cmp - evaluation_output.txt

# The equivalence oracle: every experiment at -quick scale, as JSON. The
# fixed-seed output is byte-identical at any -parallel width, so one committed
# golden (captured on amd64) pins the whole registry's behaviour; a refactor
# that changes a single byte of any experiment fails golden-check. After an
# intended output change, regenerate with `make golden` and explain the diff.
GOLDEN := testdata/bench-quick-all.golden.json

golden:
	$(GO) run ./cmd/siloz bench -quick -exp all -json > $(GOLDEN)

golden-check:
	$(GO) run ./cmd/siloz bench -quick -exp all -json | cmp - $(GOLDEN)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multitenant
	$(GO) run ./examples/eptguard
	$(GO) run ./examples/addressing
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/migration
	$(GO) run ./examples/lifecycleattack

# The CLI tools outside the registry, end to end; each exits 0.
tools:
	$(GO) run ./cmd/siloz topology
	$(GO) run ./cmd/siloz topology -subarray-rows 640
	$(GO) run ./cmd/siloz topology -subarray-rows 256
	$(GO) run ./cmd/siloz blacksmith -patterns 20
	$(GO) run ./cmd/siloz infer -true-size 1024

check: build vet fmt-check test

# Pre-commit gate: everything `check` runs, the seven examples, plus the two
# oracles — all 24 experiments end to end through the real CLI at -quick
# scale (JSON) and at paper scale (text), each compared byte for byte.
verify: build vet fmt-check test examples golden-check evaluation-check

clean:
	$(GO) clean ./...

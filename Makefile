# Build/test entry points; CI (.github/workflows/ci.yml) runs the same
# targets, so a green `make ci` locally means a green pipeline.
# `make help` lists the targets.

GO ?= go

.PHONY: all help build vet test race flake bench-short bench-check sched-smoke throttle-smoke mem-smoke replay-smoke wait-smoke ws-smoke topo-smoke chaos-smoke perftrack-smoke depbench perftrack ci

all: build

help:
	@echo "Targets:"
	@echo "  build          go build ./..."
	@echo "  vet            go vet ./..."
	@echo "  test           full test suite"
	@echo "  race           race detector pass (short mode)"
	@echo "  flake          flake hunt: every package N times under -race -short (N=20; narrow"
	@echo "                 with FLAKE_PKGS='./internal/deps .'); prints 'package Test fails/N'"
	@echo "                 for every test that failed, exits non-zero on any (scheduled CI job)"
	@echo "  bench-short    every benchmark once (benchmark-code smoke)"
	@echo "  bench-check    the bench/ module (its own go.mod, so ./... skips it): vet, unit"
	@echo "                 tests, and one quick end-to-end pass each of axpy_nest_weak,"
	@echo "                 sortsum_weak (the fragmenting / partial-release path) and"
	@echo "                 gs_graph_replay (the recording sweep's guard straddles every stripe)"
	@echo "  sched-smoke    ready-pool contention matrix (w=1/4/8) + w=1 parity guard"
	@echo "  throttle-smoke throttle-window contention matrix (impl x window x w) + w=1 parity guard"
	@echo "  mem-smoke      memory-pool gates: >=5x alloc cut, pooled-vs-reference differentials,"
	@echo "                 leak accounting, w=1 parity guard, SubmitDisjoint bench smoke"
	@echo "  replay-smoke   record-and-replay gates: replay-vs-live differential over random"
	@echo "                 iterative programs, shape-flip invalidation fallback, countdown-node"
	@echo "                 leak accounting, w=1 parity guard (replay <=1.5x live), workload"
	@echo "                 validation (GS graph variant + heat vs sequential reference)"
	@echo "  wait-smoke     taskwait gates: parking-vs-continuation differential over random"
	@echo "                 nested programs, zero-parks continuation check (w=2/4/8), exact"
	@echo "                 w=1 stats, edge cases, w=1 parity guard (continuation <=1.5x"
	@echo "                 parking), plus the depbench nested-taskwait table"
	@echo "  ws-smoke       worksharing gates: chunked-vs-expand differential over randomized"
	@echo "                 grains and skewed chunk costs, single-replay-node check, w=1 parity"
	@echo "                 guard (chunked <=1.5x expand), chunk-descriptor alloc gate, workload"
	@echo "                 validation (axpy + GS wavefront), plus the depbench ws table"
	@echo "  topo-smoke     steal-topology gates: resolved-tree shape, exact nearest-first"
	@echo "                 steal-distance walk, nearest-first announce spread, affinity batch"
	@echo "                 routing, w=1 parity guard (tree <=1.5x flat), the cross-group"
	@echo "                 steal-rate drop (tree strictly below flat at w=4/8, histogram"
	@echo "                 mostly sibling-level), plus the depbench locality table"
	@echo "  chaos-smoke    robustness gates (-race): seeded chaos soak (failpoints on every"
	@echo "                 lock-free edge, checksum + drain + zero-stall oracles, failing"
	@echo "                 seeds print a -seed replay line), watchdog selftest (induced"
	@echo "                 lost wakeup must be named, healthy run must stay silent),"
	@echo "                 panic-safe drain suite, chaos unit tests, and the depbench"
	@echo "                 chaos table with its 0-stalls expectation"
	@echo "  perftrack-smoke perf-trajectory gates: perfstat + pattern-detector unit tests,"
	@echo "                 the synthetic gate/detector selftest (both verdicts), and a"
	@echo "                 reduced-op collect + append + compare cycle against a scratch"
	@echo "                 history (wide materiality floor so host noise cannot flake CI)"
	@echo "  depbench       contention tables: deps engines (incl. pooled memory), sched pools,"
	@echo "                 throttle windows, replay cache, taskwait strategies, worksharing"
	@echo "                  chunks, steal locality (go run ./cmd/depbench; -mode deps|sched|"
	@echo "                  throttle|replay|wait|ws|locality|chaos selects one table, -workers/"
	@echo "                  -ops/-sched-ops/-throttle-ops/-window/-replay-iters/-wait-reps/"
	@echo "                  -ws-iters/-ws-grain/-locality-ops/-chaos-seed/-chaos-rate size the"
	@echo "                  sweeps; -json emits machine-readable rows instead of tables)"
	@echo "  perftrack      full perf-trajectory run: collect the depbench matrix + reproduce"
	@echo "                 workloads under CV validation, gate against the last committed"
	@echo "                 record, append to BENCH_history.json (go run ./cmd/perftrack)"
	@echo "  ci             build + vet + test + race + bench-short + bench-check + sched/throttle/mem/replay/wait/ws/topo/chaos/perftrack smokes"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Short-mode race pass: the stress suites trim their seed counts under
# -short so this stays CI-friendly.
race:
	$(GO) test -race -short ./...

# Flake hunt (not part of `ci`; CI runs it on a schedule): each package is
# tested N times under the race detector in short mode, and every test that
# failed is reported with its rate as "package Test fails/N". A package that
# fails without naming a test (a build failure, a crash) is reported as a
# whole. Exits non-zero on any failure.
N ?= 20
FLAKE_PKGS ?= ./...
flake:
	@status=0; \
	for pkg in $$($(GO) list $(FLAKE_PKGS)); do \
		out=$$($(GO) test -race -short -count=$(N) $$pkg 2>&1); rc=$$?; \
		fails=$$(printf '%s\n' "$$out" | awk -v pkg=$$pkg -v n=$(N) \
			'/^--- FAIL: / { c[$$3]++ } END { for (t in c) printf "%s %s %d/%d\n", pkg, t, c[t], n }'); \
		if [ -n "$$fails" ]; then printf '%s\n' "$$fails"; status=1; \
		elif [ $$rc -ne 0 ]; then printf '%s\n' "$$out" | tail -n 20; echo "$$pkg (package) failed"; status=1; \
		else echo "$$pkg ok x$(N)"; fi; \
	done; \
	exit $$status

# Quick benchmark smoke: every benchmark runs at least once (correctness
# of the benchmark code), without the full measurement sweeps.
bench-short:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repository benchmark lives in bench/, a module of its own that the
# root `./...` patterns never reach: vet it, run its unit tests, and drive
# one quick end-to-end pass (tiny sizes, verified against the sequential
# reference) so a runtime change that breaks it fails CI, not the driver.
# sortsum_weak rides along because it is the one workload whose intervals
# fragment and release piece by piece, gs_graph_replay because its object is
# striped by tile-sized first accesses and the recording sweep's union guard
# is the one access of the benchmark that then straddles every stripe.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./... && $(GO) run . -quick -workload axpy_nest_weak -trace 0 && $(GO) run . -quick -workload sortsum_weak -trace 0 && $(GO) run . -quick -workload gs_graph_replay -trace 0

# Scheduler admission contention smoke: the pool matrix at w=1/4/8 plus
# the w=1 parity regression guard (the sharded pools' lock-free fast paths
# must stay at parity with the single-lock reference when uncontended).
sched-smoke:
	$(GO) test -run 'TestSchedW1Parity' -bench 'BenchmarkSchedContentionMatrix' -benchtime 1x ./internal/sched

# Throttle admission-window contention smoke: the window matrix
# (impl x window x w=1/4/8) plus the w=1 parity regression guard (the
# sharded window's credit-cache fast path must stay at parity with the
# mutex+cond reference when uncontended).
throttle-smoke:
	$(GO) test -run 'TestThrottleW1Parity' -bench 'BenchmarkThrottleContentionMatrix' -benchtime 1x ./internal/throttle

# Memory-pool smoke: the steady-state allocation gate (pooled must cut
# allocs/op >=5x vs the allocate-always reference), the pooled-vs-reference
# differentials and leak accounting at both the engine and runtime level,
# the w=1 parity guard (pooled free-list hops must stay at parity with
# plain allocation when uncontended), and one pass over the SubmitDisjoint
# benchmark's memory-mode matrix.
mem-smoke:
	$(GO) test -run 'TestMemPool' -bench 'BenchmarkSubmitDisjoint' -benchtime 1x ./internal/deps
	$(GO) test -run 'TestMemPool' ./internal/core

# Record-and-replay smoke: the replay-vs-live differential (identical
# final state and task counts over randomized iterative programs), the
# shape-flip invalidation fallback (no lost tasks, zero countdown nodes
# outstanding), the w=1 parity guard (a replayed sweep must not cost more
# than 1.5x the live engine when uncontended — in practice it is several
# times cheaper), and the graph-region workload validations.
replay-smoke:
	$(GO) test -run 'TestGraphReplayDifferential|TestGraphShapeFlipInvalidation|TestReplayW1Parity' ./internal/core
	$(GO) test -run 'TestHeatValidates|TestGSGraphValidates' ./internal/workloads

# Taskwait smoke: the parking-vs-continuation differential over randomized
# nested programs (identical checksums and exact w=1 blocking-wait counts),
# the zero-parks check (continuation mode must never park a worker at
# w=2/4/8 while the parking reference always does), the exact-stats and
# edge-case suites, the w=1 parity guard (continuation handoff must stay
# within 1.5x of the parking reference when uncontended), and one pass of
# the depbench nested-taskwait table.
wait-smoke:
	$(GO) test -run 'TestTaskwaitImplResolution|TestTaskwaitExactStats|TestTaskwaitZeroParksMultiWorker|TestTaskwaitEdgeCases|TestTaskwaitW1Parity' ./internal/core
	$(GO) run ./cmd/depbench -mode wait -workers 2,4,8 -wait-reps 60

# Worksharing smoke: the chunked-vs-expand differential (identical final
# state over randomized grains, widths, and skewed chunk costs), the
# single-replay-node composition check (a region records and replays as
# one graph node), the w=1 parity guard (the chunked body must stay within
# 1.5x of the per-chunk-task expansion when uncontended), the
# chunk-descriptor allocation gate (zero fresh descriptors in steady
# state, with leak accounting), the workload validations (axpy +
# Gauss-Seidel wavefront against their sequential references), and one
# pass of the depbench ws table.
ws-smoke:
	$(GO) test -run 'TestWorksharingBasic|TestWorksharingKindResolution|TestWorksharingDifferential|TestWorksharingW1Parity|TestWorksharingReplaySingleNode|TestWorksharingEdgeCases|TestMemPoolAllocGateWorksharing' ./internal/core
	$(GO) test -run 'TestAxpyWorksharingAllStrategies|TestGSWsWavefrontValidates' ./internal/workloads
	$(GO) run ./cmd/depbench -mode ws -workers 2,4 -ws-iters 40 -ws-grain 64,256

# Contention tables (deps: global vs sharded engine, plus the pooled
# memory mode; sched: single-lock vs
# sharded ready pools; throttle: mutex+cond vs sharded token-bucket
# window; replay: live engine vs frozen-graph replay per sweep; wait:
# parking vs continuation taskwait). See `go doc ./cmd/depbench` for the
# flags and columns.
depbench:
	$(GO) run ./cmd/depbench

# Steal-topology smoke: the resolved-tree shape checks, the exact
# nearest-first walk order on a frozen two-domain pool (sibling level
# exhausted before the domain, domain before remote, per-level counters
# exact), the nearest-first announce spread, affinity-hinted batch
# routing (cross-group hints divert to the hinted shard's inbox), the
# w=1 parity guard (the topology walk must not cost anything with no one
# to steal from), the locality acceptance gate (tree cross-group steal
# rate strictly below the flat reference at w=4/8 with a mostly
# sibling-level histogram), and one pass of the depbench locality table.
topo-smoke:
	$(GO) test -run 'TestTopologyResolve|TestStealDistanceDistribution|TestAnnounceNearestFirst|TestSubmitBatchAffinityRouting|TestTopologyW1Parity' ./internal/sched
	$(GO) test -run 'TestLocalityCrossGroupDrop' ./internal/harness
	$(GO) run ./cmd/depbench -mode locality -workers 4,8 -locality-ops 100000

# Robustness smoke: the chaos soak (short mode: >=12 seeded failpoint
# schedules x 3 fire rates over the mixed-construct workload, under the
# race detector, with checksum/drain/zero-stall oracles; failing seeds
# print a `-seed N` replay line), the combined chaos+panic soak, the
# watchdog selftest (a synthetic lost wakeup in a reference pool must be
# detected and named; a healthy nested/worksharing run at aggressive
# sampling must stay silent), the panic-safe drain suite (replayed graph
# regions, owner aborts, final tasks, worksharing owners, taskgroups,
# Run's re-panic-after-drain), the chaos registry unit tests, and one
# pass of the depbench chaos table (stalls column must read 0).
chaos-smoke:
	$(GO) test -race -short -run 'TestChaos|TestWatchdog|TestStallDetector|TestPanic|TestRunRepanicsAfterDrain' ./internal/core
	$(GO) test -race ./internal/chaos
	$(GO) test -race -short -run 'TestChaosGroupsCoverAllSites|TestChaosBenchRows' ./internal/harness
	$(GO) run ./cmd/depbench -mode chaos -workers 4 -chaos-iters 32

# Perf-trajectory smoke: the statistics layer's unit tests (CV collection,
# Welch/Mann-Whitney, gate verdicts both ways), the pattern detector's
# synthetic pass/fail suite, the perftrack selftest (a synthetic regression
# must gate, an identical sample must not; a serialized trace must
# classify, a healthy one must not), and one reduced-op collect + append +
# compare cycle against a scratch history. The compare step uses a wide
# materiality floor (-min-delta 3.0) because its job here is to exercise
# the plumbing — verdict correctness is proven by the selftest and unit
# tests, and a tight floor would flake on noisy CI hosts.
perftrack-smoke:
	$(GO) test ./internal/perfstat
	$(GO) test -run 'TestDetectPatterns|TestDetectSerializedCreation|TestDetectStarvedWorkers|TestDetectWaitHeavy|TestPatternReportRendering' ./internal/trace
	$(GO) run ./cmd/perftrack -selftest-gate
	rm -f /tmp/perftrack_smoke.json
	$(GO) run ./cmd/perftrack -quick -workers 1,2 -reps 3 -history /tmp/perftrack_smoke.json
	$(GO) run ./cmd/perftrack -quick -workers 1,2 -reps 3 -history /tmp/perftrack_smoke.json -compare -no-append -min-delta 3.0

# Full trajectory run: collect, gate against the last committed record,
# and append to BENCH_history.json (commit the result).
perftrack:
	$(GO) run ./cmd/perftrack -compare

ci: build vet test race bench-short bench-check sched-smoke throttle-smoke mem-smoke replay-smoke wait-smoke ws-smoke topo-smoke chaos-smoke perftrack-smoke

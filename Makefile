# Build/test entry points; CI (.github/workflows/ci.yml) runs the same
# targets, so a green `make ci` locally means a green pipeline.
# `make help` lists the targets.

GO ?= go

.PHONY: all help build vet test race flake bench-short bench-check sched-smoke throttle-smoke mem-smoke replay-smoke wait-smoke ws-smoke chaos-smoke depbench ci

all: build

help:
	@echo "Targets:"
	@echo "  build          go build ./..."
	@echo "  vet            go vet ./... + gofmt -l gate (fails on any unformatted file)"
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
	@echo "  sched-smoke    ready-pool contention matrix (stealing vs central, w=1/4/8) + w=1"
	@echo "                 parity guard (stealing <=1.5x the central single-lock reference)"
	@echo "  throttle-smoke throttle-window contention matrix (impl x window x w) + w=1 parity guard"
	@echo "  mem-smoke      memory-pool gates: >=5x alloc cut, pooled-vs-reference differentials,"
	@echo "                 leak accounting, w=1 parity guard, SubmitDisjoint bench smoke"
	@echo "  replay-smoke   record-and-replay gates: replay-vs-live differential over random"
	@echo "                 iterative programs, shape-flip invalidation fallback, countdown-node"
	@echo "                 leak accounting, w=1 parity guard (replay <=1.5x live), workload"
	@echo "                 validation (GS graph variant + heat vs sequential reference)"
	@echo "  wait-smoke     taskwait gates: stealing-vs-central differential over random nested"
	@echo "                 programs (the stealing pool's waits help, the central queue's park),"
	@echo "                 exact w=1 stats, descendants-only help counterexample, one park per"
	@echo "                 blocked wait (w=2/4/8), edge cases"
	@echo "  ws-smoke       worksharing gates: chunked-vs-expand differential over randomized"
	@echo "                 grains and skewed chunk costs, single-replay-node check, w=1 parity"
	@echo "                 guard (chunked <=1.5x expand), chunk-descriptor alloc gate, workload"
	@echo "                 validation (axpy + GS wavefront), plus the depbench ws table"
	@echo "  chaos-smoke    robustness gates (-race): seeded chaos soak (failpoints on every"
	@echo "                 lock-free edge, checksum + drain + zero-stall oracles, failing"
	@echo "                 seeds print a -seed replay line), watchdog selftest (induced"
	@echo "                 lost wakeup must be named, healthy run must stay silent),"
	@echo "                 panic-safe drain suite, chaos unit tests, and the depbench"
	@echo "                 chaos table with its 0-stalls expectation"
	@echo "  depbench       contention tables: deps engines (incl. pooled memory), sched pools,"
	@echo "                 throttle windows, replay cache, worksharing chunks (go run"
	@echo "                 ./cmd/depbench; -mode deps|sched|throttle|replay|ws|chaos selects one"
	@echo "                 table, -workers/-ops/-sched-ops/-throttle-ops/-window/-replay-iters/"
	@echo "                 -ws-iters/-ws-grain/-chaos-seed/-chaos-rate size the sweeps; -json"
	@echo "                 emits machine-readable rows instead of tables)"
	@echo "  ci             build + vet + test + race + bench-short + bench-check + sched/throttle/mem/replay/wait/ws/chaos smokes"

build:
	$(GO) build ./...

# gofmt gate: any file gofmt would rewrite fails the target (bench/ is
# inside the tree, so it is checked too).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

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

# Scheduler admission contention smoke: the stealing-vs-central matrix at
# w=1/4/8 plus the w=1 parity regression guard (the stealing pool's
# lock-free fast paths must stay at parity with the central single-lock
# reference when uncontended).
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

# Taskwait smoke: the differential over randomized nested programs, run on
# the stealing pool (whose waits run their queued descendants inline) and
# on the central queue (whose waits always park): identical checksums and
# task counts, and exact w=1 counts — every task inlined and no park on the
# one, the predicted parks on the other. Then the descendants-only
# counterexample (a wait that ran a task it is not waiting for would
# deadlock; the test times out), the one-park-per-blocked-wait check (with
# the children started on other workers, every wait parks exactly once at
# w=2/4/8), and the exact-stats and edge-case suites.
wait-smoke:
	$(GO) test -run 'TestTaskwaitExactStats|TestTaskwaitDifferential|TestTaskwaitInlineDescendantsOnly|TestTaskwaitOneParkPerBlockedWait|TestTaskwaitEdgeCases' ./internal/core

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
# memory mode; sched: central single-lock vs work-stealing ready pool;
# throttle: mutex+cond vs sharded token-bucket window; replay: live engine
# vs frozen-graph replay per sweep; ws: per-chunk tasks vs one worksharing
# task). See `go doc ./cmd/depbench` for the flags and columns.
depbench:
	$(GO) run ./cmd/depbench

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

ci: build vet test race bench-short bench-check sched-smoke throttle-smoke mem-smoke replay-smoke wait-smoke ws-smoke chaos-smoke

# Build/test entry points; CI (.github/workflows/ci.yml) runs the same
# targets, so a green `make ci` locally means a green pipeline.
# `make help` lists the targets.

GO ?= go

.PHONY: all help build vet test race flake bench-short bench-check smoke depbench ci

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
	@echo "  smoke          per-subsystem gates, one table row each (see SMOKE_TESTS): ready-pool"
	@echo "                 and throttle w=1 parity + contention matrices; memory-pool alloc gates,"
	@echo "                 pooled-vs-reference differentials and leak accounting; replay-vs-live"
	@echo "                 differential + shape-flip fallback; taskwait differential, exact stats,"
	@echo "                 descendants-only help, one park per blocked wait; worksharing vs its"
	@echo "                 Taskloop oracle, w=1 parity, alloc gate, workload validation; the"
	@echo "                 chaos soak, watchdog selftest and panic-safe drain (-race); plus the"
	@echo "                 depbench ws and chaos tables (chaos expects 0 stalls)"
	@echo "  depbench       contention tables: deps engines (incl. pooled memory), sched pools,"
	@echo "                 throttle windows, replay cache, worksharing chunks (go run"
	@echo "                 ./cmd/depbench; -mode deps|sched|throttle|replay|ws|chaos selects one"
	@echo "                 table, -workers/-ops/-sched-ops/-throttle-ops/-window/-replay-iters/"
	@echo "                 -ws-iters/-ws-grain/-chaos-seed/-chaos-rate size the sweeps; -json"
	@echo "                 emits machine-readable rows instead of tables)"
	@echo "  ci             build + vet + test + race + bench-short + bench-check + smoke"

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

# Per-subsystem smoke, one row per package and pass: the go test flags (a
# -run pattern, any -bench pass, -race), then the package.
#   sched, throttle: the w=1 parity guards (the lock-free fast paths stay at
#     parity with the single-lock references when uncontended) and one pass
#     of each contention matrix.
#   deps, core (first core row): the memory-pool gates — steady-state alloc
#     cut, pooled-vs-reference differentials, leak accounting, w=1 parity;
#     the replay-vs-live differential, shape-flip fallback and replay w=1
#     parity; the taskwait differential (stealing pool helps, central queue
#     parks), exact w=1 stats, the descendants-only counterexample and one
#     park per blocked wait; worksharing coverage, replay-as-one-node,
#     edge cases and the chunk-descriptor alloc gate.
#   root: worksharing against its Taskloop oracle (differential, w=1
#     parity, replay task counts).
#   workloads: heat, GS graph and worksharing variants validated against
#     their sequential references.
#   core (-race), chaos, harness: the seeded chaos soak, watchdog selftest,
#     panic-safe drain suite, and the chaos registry and bench-row tests.
SMOKE_TESTS = \
	'-run TestSchedW1Parity -bench BenchmarkSchedContentionMatrix -benchtime 1x ./internal/sched' \
	'-run TestThrottleW1Parity -bench BenchmarkThrottleContentionMatrix -benchtime 1x ./internal/throttle' \
	'-run TestMemPool -bench BenchmarkSubmitDisjoint -benchtime 1x ./internal/deps' \
	'-run TestMemPool|TestGraphReplayDifferential|TestGraphShapeFlipInvalidation|TestReplayW1Parity|TestTaskwaitExactStats|TestTaskwaitDifferential|TestTaskwaitInlineDescendantsOnly|TestTaskwaitOneParkPerBlockedWait|TestTaskwaitEdgeCases|TestWorksharingBasic|TestWorksharingReplaySingleNode|TestWorksharingEdgeCases ./internal/core' \
	'-run TestWorksharingDifferential|TestWorksharingW1Parity|TestWorksharingReplayVsTaskloop .' \
	'-run TestHeatValidates|TestGSGraphValidates|TestAxpyWorksharingAllStrategies|TestGSWsWavefrontValidates ./internal/workloads' \
	'-race -short -run TestChaos|TestWatchdog|TestStallDetector|TestPanic|TestRunRepanicsAfterDrain ./internal/core' \
	'-race ./internal/chaos' \
	'-race -short -run TestChaosGroupsCoverAllSites|TestChaosBenchRows ./internal/harness'

# The depbench passes of the smoke: the worksharing table, and the chaos
# table, which exits non-zero on any stall report.
SMOKE_DEPBENCH = \
	'-mode ws -workers 2,4 -ws-iters 40 -ws-grain 64,256' \
	'-mode chaos -workers 4 -chaos-iters 32'

smoke:
	@set -e; \
	for args in $(SMOKE_TESTS); do echo "go test $$args"; $(GO) test $$args; done; \
	for args in $(SMOKE_DEPBENCH); do echo "depbench $$args"; $(GO) run ./cmd/depbench $$args; done

# Contention tables (deps: global vs sharded engine, plus the pooled
# memory mode; sched: central single-lock vs work-stealing ready pool;
# throttle: mutex+cond vs sharded token-bucket window; replay: live engine
# vs frozen-graph replay per sweep; ws: per-chunk tasks vs one worksharing
# task). See `go doc ./cmd/depbench` for the flags and columns.
depbench:
	$(GO) run ./cmd/depbench

ci: build vet test race bench-short bench-check smoke

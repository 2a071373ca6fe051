# Build/test entry points; CI (.github/workflows/ci.yml) runs the same
# targets, so a green `make ci` locally means a green pipeline.
# `make help` lists the targets.

GO ?= go

.PHONY: all help build vet test race flake bench-short bench-check smoke ci loc

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
	@echo "                 sortsum_weak (the fragmenting / partial-release path),"
	@echo "                 gs_graph_replay (the recording sweep's guard straddles every stripe),"
	@echo "                 fib_taskwait and axpy_flood_throttled (clause-free tasks: no engine node)"
	@echo "  smoke          per-subsystem gates, one table row each (see SMOKE_TESTS): ready-pool"
	@echo "                 w=1 parity + contention matrix; throttle cycle kernel (quiescent"
	@echo "                 window) + contention matrix; memory-pool alloc gates,"
	@echo "                 pooled-vs-reference differentials and leak accounting; replay-vs-live"
	@echo "                 differential + shape-flip fallback; taskwait differential (helping vs"
	@echo "                 park-only waits), exact stats, descendants-only help, one park per"
	@echo "                 blocked wait; worksharing vs its Taskloop oracle, w=1 parity, alloc"
	@echo "                 gate, workload validation; no engine node for a clause-free task, and"
	@echo "                 every lazy-domain path; the chaos soak and its per-subsystem"
	@echo "                 table (0 stalls on every row), watchdog selftest and panic-safe"
	@echo "                 drain (-race)"
	@echo "  ci             build + vet + test + race + bench-short + bench-check + smoke"
	@echo "  loc            Go line counts, non-test and test, of the root module (bench/"
	@echo "                 excluded) and of the bench/ module"

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
# fib_taskwait and axpy_flood_throttled submit only tasks without a depend
# clause, the path that creates no engine node at all.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./... && $(GO) run . -quick -workload axpy_nest_weak -trace 0 && $(GO) run . -quick -workload sortsum_weak -trace 0 && $(GO) run . -quick -workload gs_graph_replay -trace 0 && $(GO) run . -quick -workload fib_taskwait -trace 0 && $(GO) run . -quick -workload axpy_flood_throttled -trace 0

# Per-subsystem smoke, one row per package and pass: the go test flags (a
# -run pattern, any -bench pass, -race), then the package.
#   sched: the w=1 parity guard (the lock-free fast path stays at parity
#     with the single-lock reference when uncontended) and one pass of the
#     contention matrix.
#   throttle: the cycle kernel (the window ends quiescent, tight and wide)
#     and one pass of the contention matrix.
#   deps, core (first core row): the memory-pool gates — steady-state alloc
#     cut, pooled-vs-reference differentials, leak accounting, w=1 parity;
#     the replay-vs-live differential, shape-flip fallback and replay w=1
#     parity; the taskwait differential (helping vs park-only waits), exact
#     w=1 stats, the descendants-only counterexample and one park per
#     blocked wait; worksharing coverage, replay-as-one-node,
#     edge cases and the chunk-descriptor alloc gate; no engine node for
#     a task without a depend clause, and every lazy-domain path.
#   root: worksharing against its Taskloop oracle (differential, w=1
#     parity, replay task counts).
#   workloads: heat, GS graph and worksharing variants validated against
#     their sequential references.
#   core (-race), chaos: the seeded chaos soak and its per-subsystem table
#     (one failpoint group per row, checksum, drain and 0 stalls on each),
#     watchdog selftest, panic-safe drain suite, and the chaos registry.
SMOKE_TESTS = \
	'-run TestSchedW1Parity -bench BenchmarkSchedContentionMatrix -benchtime 1x ./internal/sched' \
	'-run TestThrottleCycleKernel -bench BenchmarkThrottleContentionMatrix -benchtime 1x ./internal/throttle' \
	'-run TestMemPool -bench BenchmarkSubmitDisjoint -benchtime 1x ./internal/deps' \
	'-run TestMemPool|TestGraphReplayDifferential|TestGraphShapeFlipInvalidation|TestReplayW1Parity|TestTaskwaitExactStats|TestTaskwaitDifferential|TestTaskwaitInlineDescendantsOnly|TestTaskwaitOneParkPerBlockedWait|TestTaskwaitEdgeCases|TestWorksharingBasic|TestWorksharingReplaySingleNode|TestWorksharingEdgeCases|TestNoDependNoNode|TestLazyDomain ./internal/core' \
	'-run TestWorksharingDifferential|TestWorksharingW1Parity|TestWorksharingReplayVsTaskloop .' \
	'-run TestHeatValidates|TestGSGraphValidates|TestAxpyWorksharingAllStrategies|TestGSWsWavefrontValidates ./internal/workloads' \
	'-race -short -run TestChaos|TestWatchdog|TestStallDetector|TestPanic|TestRunRepanicsAfterDrain ./internal/core' \
	'-race ./internal/chaos'

smoke:
	@set -e; \
	for args in $(SMOKE_TESTS); do echo "go test $$args"; $(GO) test $$args; done

ci: build vet test race bench-short bench-check smoke

# Go line counts, the figures ROADMAP's line-count gates quote: non-test and
# test lines of the root module (bench/ excluded) and of the bench/ module.
loc:
	@printf '%-6s %9s %6s\n' module non-test test
	@printf '%-6s %9d %6d\n' root \
		$$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs -r cat | wc -l) \
		$$(find . -path ./bench -prune -o -name '*_test.go' -print | xargs -r cat | wc -l)
	@printf '%-6s %9d %6d\n' bench \
		$$(find bench -name '*.go' ! -name '*_test.go' | xargs -r cat | wc -l) \
		$$(find bench -name '*_test.go' | xargs -r cat | wc -l)

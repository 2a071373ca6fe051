package harness

import (
	"testing"

	"repro/internal/deps"
	"repro/internal/mempool"
	"repro/internal/throttle"
)

// The contention kernels back cmd/depbench's tables. These tests drive every
// row of each table at tiny sizes and check the counters the tables derive
// their columns from: the op count the per-op rates divide by, the
// implementation-specific counters that must stay zero on the other
// implementation, and the idleness fractions.

const kernelWorkers = 2

func checkCounters(t *testing.T, c BenchCounters, wantOps int) {
	t.Helper()
	if c.Ops != wantOps {
		t.Errorf("Ops = %d, want %d", c.Ops, wantOps)
	}
	if c.Wall <= 0 {
		t.Errorf("Wall = %v, want > 0", c.Wall)
	}
	if c.MutexWait < 0 || c.GCPause < 0 {
		t.Errorf("negative counter delta: MutexWait %v, GCPause %v", c.MutexWait, c.GCPause)
	}
}

func checkIdle(t *testing.T, idle float64) {
	t.Helper()
	if idle < 0 || idle > 1 {
		t.Errorf("Idle = %v, want a fraction in [0, 1]", idle)
	}
}

func TestDepsBench(t *testing.T) {
	rows := []struct {
		name string
		kind deps.EngineKind
		mem  mempool.Kind
	}{
		{"global", deps.EngineGlobal, mempool.KindReference},
		{"sharded", deps.EngineSharded, mempool.KindReference},
		{"sharded-pool", deps.EngineSharded, mempool.KindPooled},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			// 2001 ops over 2 chains round down to 1000 steps each.
			checkCounters(t, DepsBench(r.kind, r.mem, kernelWorkers, 2001), 2000)
		})
	}
}

func TestSchedBench(t *testing.T) {
	for _, p := range SchedPools {
		t.Run(p.Name, func(t *testing.T) {
			c, steals := SchedBench(p.Make, kernelWorkers, 2001)
			checkCounters(t, c, 2000)
			if steals < 0 {
				t.Errorf("steals = %d, want >= 0", steals)
			}
			if p.Name == "central" && steals != 0 {
				t.Errorf("central pool reported %d steals; it has no steal counters", steals)
			}
		})
	}
}

func TestThrottleBench(t *testing.T) {
	for _, kind := range []throttle.Kind{throttle.KindLocked, throttle.KindSharded} {
		t.Run(kind.String(), func(t *testing.T) {
			// A window of one slot under two submitters exercises the park path.
			c, parks := ThrottleBench(kind, kernelWorkers, 2001, 1)
			checkCounters(t, c, 2000)
			if parks < 0 {
				t.Errorf("parks = %d, want >= 0", parks)
			}
		})
	}
}

func TestReplayOverheadBench(t *testing.T) {
	const blocks, iters = 4, 3
	names := map[ReplayVariant]string{
		ReplayNestWeak: "live-nestweak", ReplayLiveGraph: "live-graph", ReplayFrozen: "replay",
	}
	for _, v := range []ReplayVariant{ReplayNestWeak, ReplayLiveGraph, ReplayFrozen} {
		t.Run(v.String(), func(t *testing.T) {
			if v.String() != names[v] {
				t.Errorf("ReplayVariant(%d).String() = %q, want %q", v, v.String(), names[v])
			}
			c, tiles := ReplayOverheadBench(v, kernelWorkers, blocks, iters)
			if tiles != blocks*blocks {
				t.Errorf("tiles per iteration = %d, want %d", tiles, blocks*blocks)
			}
			checkCounters(t, c, blocks*blocks*iters)
		})
	}
}

func TestWSChunkBench(t *testing.T) {
	const iters, grain, n = 3, 16, 100
	for _, taskloop := range []bool{true, false} {
		name := "chunked"
		if taskloop {
			name = "taskloop"
		}
		t.Run(name, func(t *testing.T) {
			res := WSChunkBench(taskloop, kernelWorkers, iters, grain, n)
			checkCounters(t, res.BenchCounters, iters)
			if want := int64((n + grain - 1) / grain * iters); res.Chunks != want {
				t.Errorf("Chunks = %d, want %d", res.Chunks, want)
			}
			if res.HelperChunks < 0 || res.HelperChunks > res.Chunks {
				t.Errorf("HelperChunks = %d, want within [0, %d]", res.HelperChunks, res.Chunks)
			}
			if taskloop && res.HelperChunks != 0 {
				t.Errorf("taskloop baseline ran %d helper chunks; it announces no helpers", res.HelperChunks)
			}
			checkIdle(t, res.Idle)
		})
	}
}

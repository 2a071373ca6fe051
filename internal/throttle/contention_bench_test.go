package throttle

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Throttle-window contention: w submitter loops share one window, each
// cycling reserve → enter → start — the throttled-submission analogue of
// the dependency engine's disjoint chains and the scheduler's submit/finish
// chains (every cycle crosses the admission window; the submitters share
// no other state). Under the locked window every Started broadcasts under
// one mutex, so all cycles serialize; under the sharded window each cycle
// stays on its worker's credit-cache line. GOMAXPROCS is raised to the
// worker count so the contention is real even on small hosts.

// runWindowCycles drives w submitter loops of ops/w reserve+enter+start
// cycles each through a fresh window of the given kind and bound, and
// returns the window once every loop has finished.
func runWindowCycles(kind Kind, w, ops, limit int) Window {
	win := New(kind, limit, w)
	perW := ops / w
	if perW < 1 {
		perW = 1
	}
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				_, prepaid := win.Reserve(g, nil)
				if prepaid {
					win.EnteredReserved()
				} else {
					win.Entered(1)
				}
				win.Started(g)
			}
		}(g)
	}
	wg.Wait()
	return win
}

var contentionKinds = []Kind{KindLocked, KindSharded}

// BenchmarkThrottleContentionMatrix is the throttle contention table:
// both window implementations at w = 1 (overhead parity), 4, and 8 (lock
// contention), over a tight window (equal to the worker count, the bound
// actively pushing back) and a wide one (credit-cache steady state). The
// CI smoke runs it at -benchtime 1x; the w=1 regression guard is
// TestThrottleW1Parity below; run it with -mutexprofile to attribute the
// lock waits.
func BenchmarkThrottleContentionMatrix(b *testing.B) {
	for _, kind := range contentionKinds {
		for _, w := range []int{1, 4, 8} {
			for _, window := range []int{w, 64 * w} {
				b.Run(fmt.Sprintf("%s/w=%d/window=%d", kind, w, window), func(b *testing.B) {
					prev := runtime.GOMAXPROCS(0)
					if w > prev {
						runtime.GOMAXPROCS(w)
						defer runtime.GOMAXPROCS(prev)
					}
					b.ReportAllocs()
					runWindowCycles(kind, w, b.N, window)
				})
			}
		}
	}
}

// TestThrottleW1Parity is the regression guard on the single-worker case:
// the sharded window's credit-cache fast path must not cost materially
// more than the mutex+cond reference when there is no contention to win
// back. The bound is deliberately loose (CI hosts are noisy); the precise
// parity measurement is BenchmarkThrottleContentionMatrix's w=1 rows.
func TestThrottleW1Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard; skipped in short mode")
	}
	const ops = 200_000
	const trials = 5
	// Interleave the kinds' trials so a transient stall (noisy CI
	// neighbour, GC) hits both alike, and take each kind's best trial,
	// which filters such stalls out entirely.
	best := make([]time.Duration, len(contentionKinds))
	for i := range best {
		best[i] = time.Duration(1<<63 - 1)
	}
	for trial := 0; trial < trials; trial++ {
		for i, kind := range contentionKinds {
			start := time.Now()
			runWindowCycles(kind, 1, ops, 8)
			if d := time.Since(start); d < best[i] {
				best[i] = d
			}
		}
	}
	if f := float64(best[1]) / float64(best[0]); f > 1.5 {
		t.Errorf("sharded w=1: %.2fx slower than locked (%v vs %v); reserve fast path regressed",
			f, best[1], best[0])
	}
}

// TestThrottleCycleKernel drives both windows of
// BenchmarkThrottleContentionMatrix through the benchmark's own cycle
// kernel at a tiny size, over a one-slot window (two submitters contend
// for it, so reservers park) and a wide one (credit-cache steady state).
// The kernel must return, and the window must end quiescent with every
// credit conserved: nothing open, nobody parked, Credits() == Limit().
func TestThrottleCycleKernel(t *testing.T) {
	const w, ops = 2, 2001
	for _, kind := range contentionKinds {
		for _, window := range []int{1, 64 * w} {
			t.Run(fmt.Sprintf("%s/window=%d", kind, window), func(t *testing.T) {
				got := make(chan Window, 1)
				go func() { got <- runWindowCycles(kind, w, ops, window) }()
				var win Window
				select {
				case win = <-got:
				case <-time.After(30 * time.Second):
					t.Fatal("cycle kernel did not complete within 30s")
				}
				if open := win.Open(); open != 0 {
					t.Errorf("Open = %d after the run, want 0", open)
				}
				if n := win.Waiters(); n != 0 {
					t.Errorf("Waiters = %d after the run, want 0", n)
				}
				if c := win.Credits(); c != int64(window) {
					t.Errorf("Credits = %d after the run, want the limit %d", c, window)
				}
			})
		}
	}
}

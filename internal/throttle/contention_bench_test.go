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
// no other state). Every Started broadcasts under the window's one mutex,
// so the cycles serialize there. GOMAXPROCS is raised to the worker count
// so the contention is real even on small hosts.

// runWindowCycles drives w submitter loops of ops/w reserve+enter+start
// cycles each through a fresh window of the given bound, and returns the
// window once every loop has finished.
func runWindowCycles(w, ops, limit int) *Window {
	win := New(KindAuto, limit, w)
	perW := max(ops/w, 1)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				enter(win, g, nil)
				win.Started(g)
			}
		}(g)
	}
	wg.Wait()
	return win
}

// BenchmarkThrottleContentionMatrix is the throttle contention table: the
// window at w = 1 (uncontended overhead), 4, and 8 (lock contention), over
// a tight window (equal to the worker count, the bound actively pushing
// back) and a wide one (the fast path only). The CI smoke runs it at
// -benchtime 1x; run it with -mutexprofile to attribute the lock waits.
func BenchmarkThrottleContentionMatrix(b *testing.B) {
	for _, w := range []int{1, 4, 8} {
		for _, window := range []int{w, 64 * w} {
			b.Run(fmt.Sprintf("w=%d/window=%d", w, window), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(0)
				if w > prev {
					runtime.GOMAXPROCS(w)
					defer runtime.GOMAXPROCS(prev)
				}
				b.ReportAllocs()
				runWindowCycles(w, b.N, window)
			})
		}
	}
}

// TestThrottleCycleKernel drives the window through
// BenchmarkThrottleContentionMatrix's own cycle kernel at a tiny size,
// over a one-slot window (two submitters contend for it, so reservers
// park) and a wide one (fast path only). The kernel must return, and the
// window must end quiescent: nothing open, nobody parked,
// Credits() == Limit().
func TestThrottleCycleKernel(t *testing.T) {
	const w, ops = 2, 2001
	for _, window := range []int{1, 64 * w} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			got := make(chan *Window, 1)
			go func() { got <- runWindowCycles(w, ops, window) }()
			var win *Window
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

package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// Admission-contract tests run on both pools: the stealing pool and the
// central FIFO reference it is held against (central_test.go).

// TestSubmitRunsAll: every external submission runs, and the pool
// quiesces.
func TestSubmitRunsAll(t *testing.T) {
	for _, p := range testPools {
		t.Run(p.name, func(t *testing.T) {
			var ran atomic.Int64
			var wg sync.WaitGroup
			var s Queue[int]
			s = p.mk(4, func(item, worker int) {
				for {
					ran.Add(1)
					wg.Done()
					next, ok := s.Finish(worker)
					if !ok {
						return
					}
					item = next
				}
			})
			const n = 1000
			wg.Add(n)
			for i := 0; i < n; i++ {
				s.Submit(i, -1)
			}
			wg.Wait()
			if ran.Load() != n {
				t.Fatalf("ran %d items, want %d", ran.Load(), n)
			}
			// Allow runners to retire their tokens.
			deadline := time.Now().Add(2 * time.Second)
			for !s.Idle() {
				if time.Now().After(deadline) {
					t.Fatal("scheduler did not quiesce")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestConcurrencyCap: no more than Workers items run simultaneously.
func TestConcurrencyCap(t *testing.T) {
	for _, p := range testPools {
		t.Run(p.name, func(t *testing.T) {
			const workers = 3
			var cur, peak atomic.Int64
			var wg sync.WaitGroup
			var s Queue[int]
			s = p.mk(workers, func(item, worker int) {
				for {
					c := cur.Add(1)
					for {
						p := peak.Load()
						if c <= p || peak.CompareAndSwap(p, c) {
							break
						}
					}
					time.Sleep(100 * time.Microsecond)
					cur.Add(-1)
					wg.Done()
					next, ok := s.Finish(worker)
					if !ok {
						return
					}
					item = next
				}
			})
			const n = 100
			wg.Add(n)
			for i := 0; i < n; i++ {
				s.Submit(i, -1)
			}
			wg.Wait()
			if peak.Load() > workers {
				t.Fatalf("peak concurrency %d exceeds %d workers", peak.Load(), workers)
			}
		})
	}
}

// TestWorkerIdentityUnique: at any moment each token id is held by at most
// one runner.
func TestWorkerIdentityUnique(t *testing.T) {
	for _, p := range testPools {
		t.Run(p.name, func(t *testing.T) {
			const workers = 4
			var holders [workers]atomic.Int32
			var wg sync.WaitGroup
			var fail atomic.Bool
			var s Queue[int]
			s = p.mk(workers, func(item, worker int) {
				for {
					if holders[worker].Add(1) != 1 {
						fail.Store(true)
					}
					time.Sleep(50 * time.Microsecond)
					holders[worker].Add(-1)
					wg.Done()
					next, ok := s.Finish(worker)
					if !ok {
						return
					}
					item = next
				}
			})
			const n = 200
			wg.Add(n)
			for i := 0; i < n; i++ {
				s.Submit(i, -1)
			}
			wg.Wait()
			if fail.Load() {
				t.Fatal("two runners held the same token concurrently")
			}
		})
	}
}

// TestYieldAcquireRoundTrip: a holder that yields its token lets queued
// work run, and can reacquire afterwards.
func TestYieldAcquireRoundTrip(t *testing.T) {
	for _, p := range testPools {
		t.Run(p.name, func(t *testing.T) {
			ran := make(chan int, 1)
			var s Queue[int]
			s = p.mk(1, func(item, worker int) {
				ran <- item
				if _, ok := s.Finish(worker); ok {
					t.Error("no more work expected")
				}
			})
			w := s.Acquire()
			// With the single token held, submitted work must queue.
			s.Submit(42, -1)
			select {
			case <-ran:
				t.Fatal("item ran while the only token was held")
			case <-time.After(10 * time.Millisecond):
			}
			s.Yield(w)
			if got := <-ran; got != 42 {
				t.Fatalf("got item %d, want 42", got)
			}
			w2 := s.Acquire()
			s.Yield(w2)
			if !s.Idle() {
				// The token may still be settling; brief retry.
				time.Sleep(10 * time.Millisecond)
				if !s.Idle() {
					t.Fatal("scheduler should be idle")
				}
			}
		})
	}
}

// TestFIFOOrder: at one worker, submissions from a goroutine holding no
// token run in arrival order — the central queue's one discipline, and the
// stealing pool's inbox order.
func TestFIFOOrder(t *testing.T) {
	for _, p := range testPools {
		t.Run(p.name, func(t *testing.T) {
			var order []int
			done := make(chan struct{})
			var s Queue[int]
			s = p.mk(1, func(item, worker int) {
				for {
					order = append(order, item) // single worker: no race
					next, ok := s.Finish(worker)
					if !ok {
						close(done)
						return
					}
					item = next
				}
			})
			w := s.Acquire()
			for i := 0; i < 5; i++ {
				s.Submit(i, -1)
			}
			s.Yield(w)
			<-done
			want := []int{0, 1, 2, 3, 4}
			for i := range want {
				if i >= len(order) || order[i] != want[i] {
					t.Fatalf("order = %v, want %v", order, want)
				}
			}
		})
	}
}

// TestAcquirePreferredOverPool: Finish hands the token to a blocked
// Acquire (resuming taskwait) when the queue is empty.
func TestAcquirePreferredOverPool(t *testing.T) {
	for _, p := range testPools {
		t.Run(p.name, func(t *testing.T) {
			var s Queue[int]
			started := make(chan struct{})
			s = p.mk(1, func(item, worker int) {
				close(started)
				s.Finish(worker)
			})
			s.Submit(1, -1)
			<-started
			// Acquire should obtain the token released by Finish.
			got := make(chan int, 1)
			go func() { got <- s.Acquire() }()
			select {
			case w := <-got:
				s.Yield(w)
			case <-time.After(2 * time.Second):
				t.Fatal("Acquire starved")
			}
		})
	}
}

// Property: for random worker counts and workloads, every item runs exactly
// once on the central reference (TestQuickStealingAllItemsRunOnce is the
// stealing pool's).
func TestQuickAllItemsRunOnce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + rng.Intn(8)
		n := 1 + rng.Intn(300)
		counts := make([]atomic.Int32, n)
		var wg sync.WaitGroup
		var s *Scheduler[int]
		s = newCentral(workers, func(item, worker int) {
			for {
				counts[item].Add(1)
				wg.Done()
				next, ok := s.Finish(worker)
				if !ok {
					return
				}
				item = next
			}
		})
		wg.Add(n)
		for i := 0; i < n; i++ {
			s.Submit(i, -1)
		}
		wg.Wait()
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Logf("item %d ran %d times", i, counts[i].Load())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestStealingSelfLIFOStealFIFO(t *testing.T) {
	// One token held: queue 3 items on deque 0 and 2 on deque 1, then run
	// on worker 0. Expect own deque drained LIFO (2,1,0) then deque 1
	// stolen FIFO (10,11).
	var order []int
	done := make(chan struct{})
	var s *Stealing[int]
	s = NewStealing(2, func(item, worker int) {
		for {
			order = append(order, item)
			next, ok := s.Finish(worker)
			if !ok {
				close(done)
				return
			}
			item = next
		}
	})
	w0 := s.Acquire()
	w1 := s.Acquire()
	if w0 > w1 {
		w0, w1 = w1, w0 // token pop order is an implementation detail
	}
	for i := 0; i < 3; i++ {
		s.Submit(i, 0)
	}
	for i := 10; i < 12; i++ {
		s.Submit(i, 1)
	}
	s.Yield(w0) // worker 0 starts draining; worker 1's token stays held
	<-done
	want := []int{2, 1, 0, 10, 11}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	s.Yield(w1)
}

// TestStealingStealHalf pins the bounded multi-pop: a steal miss that hits
// a loaded victim takes the oldest item for the thief AND moves half the
// victim's remaining items (bounded by stealBatchMax) onto the thief's own
// deque, so the next misses hit locally instead of rescanning victims.
func TestStealingStealHalf(t *testing.T) {
	s := NewStealing(2, func(int, int) {})
	w0 := s.Acquire()
	w1 := s.Acquire()
	if w0 > w1 {
		w0, w1 = w1, w0
	}
	// Both tokens held, so submissions queue on the submitter's deque.
	const n = 8
	for i := 0; i < n; i++ {
		s.Submit(i, w1)
	}
	item, ok := s.popFor(w0)
	if !ok || item != 0 {
		t.Fatalf("popFor(w0) = %d,%v, want 0,true (oldest of the victim)", item, ok)
	}
	// 8 queued: the thief consumed 1 and moved half the remainder (7/2=3).
	if got := s.shards[w0].deque.Size(); got != 3 {
		t.Errorf("thief deque holds %d items after steal-half, want 3", got)
	}
	if got := s.shards[w1].deque.Size(); got != 4 {
		t.Errorf("victim deque holds %d items after steal-half, want 4", got)
	}
	if st := s.Stats().Steals; st != 4 {
		t.Errorf("steals counter = %d, want 4 (1 consumed + 3 migrated)", st)
	}
	// Exactly-once drain across both deques.
	seen := map[int]bool{item: true}
	for len(seen) < n {
		it, ok := s.popFor(w0)
		if !ok {
			t.Fatalf("drain stalled with %d/%d items", len(seen), n)
		}
		if seen[it] {
			t.Fatalf("item %d taken twice", it)
		}
		seen[it] = true
	}
	if _, ok := s.popFor(w0); ok {
		t.Fatal("extra item after drain")
	}
	s.Yield(w0)
	s.Yield(w1)
}

// TestStealingOutOfRangeFrom: a negative, a far and the boundary from (==
// workers) all mean "no token held" and queue through the locked inboxes.
// The test goroutine holds no token, so it must not pass an in-range from.
func TestStealingOutOfRangeFrom(t *testing.T) {
	var ran atomic.Int64
	var wg sync.WaitGroup
	var s *Stealing[int]
	s = NewStealing(2, func(item, worker int) {
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
	wg.Add(3)
	s.Submit(1, -1)
	s.Submit(2, 99)
	s.Submit(3, 2)
	wg.Wait()
	if ran.Load() != 3 {
		t.Fatalf("ran %d, want 3", ran.Load())
	}
}

// Property: for random worker counts and submission affinities, every item
// runs exactly once and the pool quiesces.
func TestQuickStealingAllItemsRunOnce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + rng.Intn(8)
		n := 1 + rng.Intn(300)
		counts := make([]atomic.Int32, n)
		var wg sync.WaitGroup
		var s *Stealing[int]
		s = NewStealing(workers, func(item, worker int) {
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
			// The test goroutine holds no token: any in-range from would
			// violate the owner-push contract, so submit as external work
			// (occasionally with a far out-of-range from).
			s.Submit(i, -1-rng.Intn(2)*100)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(33))}); err != nil {
		t.Fatal(err)
	}
}

// TestStealingExternalSpread: with all tokens held, external submissions
// (out-of-range from) must spread round-robin across the shard inboxes
// instead of piling onto worker 0's.
func TestStealingExternalSpread(t *testing.T) {
	const workers = 4
	var s *Stealing[int]
	s = NewStealing(workers, func(item, worker int) {
		for {
			next, ok := s.Finish(worker)
			if !ok {
				return
			}
			item = next
		}
	})
	held := make([]int, workers)
	for i := range held {
		held[i] = s.Acquire()
	}
	const n = 20
	for i := 0; i < n; i++ {
		s.Submit(i, -1)
	}
	for d := range s.shards {
		if got := s.shards[d].ilen.Load(); got != n/workers {
			t.Fatalf("shard %d inbox holds %d items, want %d", d, got, n/workers)
		}
	}
	for _, w := range held {
		s.Yield(w)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !s.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("pool did not quiesce")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPopOwnOwnDequeOnly: the help pop (PopOwn) takes the owner's own
// deque newest-first — the soloQ at one worker — and nothing else: not the
// creator lane, not the inbox, not another worker's deque. PutBack returns
// an item where the next pop finds it, and a put-back item that meets a
// free token starts at once instead of waiting for the owner.
func TestPopOwnOwnDequeOnly(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			ran := map[int]bool{}
			var s *Stealing[int]
			s = NewStealing(workers, func(item, worker int) {
				for {
					mu.Lock()
					ran[item] = true
					mu.Unlock()
					next, ok := s.Finish(worker)
					if !ok {
						return
					}
					item = next
				}
			})
			ranCount := func() int {
				mu.Lock()
				defer mu.Unlock()
				return len(ran)
			}
			held := holdAll(s)
			w := held[0]
			s.Submit(1, w)
			s.Submit(2, w)
			s.SubmitCreator(100, w)
			s.Submit(50, -1)
			others := 2 // the creator and the external item
			if workers > 1 {
				s.Submit(7, held[1])
				others++
			}
			for _, want := range []int{2, 1} {
				if got, ok := s.PopOwn(w); !ok || got != want {
					t.Fatalf("PopOwn = %d, %v; want %d", got, ok, want)
				}
			}
			if got, ok := s.PopOwn(w); ok {
				t.Fatalf("PopOwn took %d from beyond the own deque", got)
			}
			s.PutBack(1, w)
			if got, ok := s.PopOwn(w); !ok || got != 1 {
				t.Fatalf("PopOwn after PutBack = %d, %v; want 1", got, ok)
			}
			if workers > 1 {
				// The other worker drains everything it can reach and retires.
				for _, h := range held[1:] {
					s.Yield(h)
				}
				deadline := time.Now().Add(5 * time.Second)
				for ranCount() < others || s.Probe().FreeTokens == 0 {
					if time.Now().After(deadline) {
						t.Fatalf("other worker ran %d of %d items", ranCount(), others)
					}
					time.Sleep(100 * time.Microsecond)
				}
				// w still holds its token: only the free one can run this.
				s.PutBack(1, w)
				for ranCount() < others+1 {
					if time.Now().After(deadline) {
						t.Fatal("a put-back item sat beside a free token")
					}
					time.Sleep(100 * time.Microsecond)
				}
			} else {
				s.PutBack(1, w)
			}
			s.Yield(w)
			waitQuiesce(t, "stealing", s)
			if got := ranCount(); got != others+1 {
				t.Errorf("ran %d items, want %d", got, others+1)
			}
		})
	}
}

package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Creator-lane tests (Stealing.SubmitCreator): the order contract — the
// owner drains its deque before the lane and then takes creators in
// depth-first program order, a thief takes a victim's outermost, oldest
// creator ahead of its deque — and the admission invariants with lane items
// in play.

// holdAll acquires every token of s and returns them in worker-id order, so
// submissions queue deterministically and nothing runs until a Yield.
func holdAll(s *Stealing[int]) []int {
	held := make([]int, s.Workers())
	for range held {
		w := s.Acquire()
		held[w] = w
	}
	return held
}

// TestCreatorLaneOwnerOrder: items on the deque run before anything in the
// lane, newest first; creators then run oldest first, except that what a
// creator itself submits comes before its later siblings — its deque
// children first, then its sub-creators in order, each followed by its own
// children. Width 1 is the soloQ path, which must honour the same order.
func TestCreatorLaneOwnerOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			var order []int
			done := make(chan struct{})
			var s *Stealing[int]
			s = NewStealing(workers, func(item, worker int) {
				for {
					order = append(order, item) // one runner: the other tokens stay held
					switch {
					case item >= 100 && item < 1000: // outer creator
						s.SubmitCreator(item*10, worker)
						s.Submit(item*10+9, worker)
						s.SubmitCreator(item*10+1, worker)
					case item >= 1000 && item < 10000 && item%10 < 2: // sub-creator
						s.Submit(item*10, worker)
						s.Submit(item*10+1, worker)
					}
					next, ok := s.Finish(worker)
					if !ok {
						close(done)
						return
					}
					item = next
				}
			})
			held := holdAll(s)
			// Interleaved, so arrival order alone cannot explain the result.
			for i := 0; i < 3; i++ {
				s.SubmitCreator(100+i, held[0])
				s.Submit(i, held[0])
			}
			if got := s.Probe(); got.Queued != 6 || got.Creators != 3 {
				t.Fatalf("probe = %+v, want 6 queued of which 3 creators", got)
			}
			s.Yield(held[0])
			<-done
			want := []int{2, 1, 0}
			for c := 100; c <= 102; c++ {
				want = append(want, c, c*10+9,
					c*10, c*100+1, c*100,
					c*10+1, c*100+11, c*100+10)
			}
			if fmt.Sprint(order) != fmt.Sprint(want) {
				t.Fatalf("order = %v\nwant    %v", order, want)
			}
			for _, w := range held[1:] {
				s.Yield(w)
			}
			waitQuiesce(t, "stealing", s)
		})
	}
}

// TestCreatorLaneThiefOrder: a thief visiting a victim takes the front of
// its oldest lane batch — the outermost pending creator — while the owner
// takes the front of the newest; the thief leaves the victim's deque and
// inbox alone until the lane is empty, then falls back to the deque
// (steal-half) and last the inbox.
func TestCreatorLaneThiefOrder(t *testing.T) {
	s := NewStealing(2, func(int, int) {})
	held := holdAll(s)
	thief, victim := held[0], held[1]
	for i := 100; i < 103; i++ {
		s.SubmitCreator(i, victim)
	}
	if got, ok := s.popFor(victim); !ok || got != 100 {
		t.Fatalf("owner popped %d,%v, want creator 100", got, ok)
	}
	// "While running 100" the victim submits two sub-creators and four
	// deque children; something external lands in its inbox.
	s.SubmitCreator(1000, victim)
	s.SubmitCreator(1001, victim)
	for i := 0; i < 4; i++ {
		s.Submit(i, victim)
	}
	s.inboxPush(victim, 50)

	wantThief := func(want int) {
		t.Helper()
		if got, ok := s.popFor(thief); !ok || got != want {
			t.Fatalf("thief popped %d,%v, want %d", got, ok, want)
		}
		if n := s.shards[victim].deque.Size(); n != 4 {
			t.Fatalf("victim deque holds %d items after a creator steal, want 4", n)
		}
	}
	wantThief(101) // not 1000: the older batch first
	if got, ok := s.shards[victim].takeLane(false); !ok || got != 1000 {
		t.Fatalf("owner took %d,%v from its lane, want sub-creator 1000", got, ok)
	}
	wantThief(102)
	wantThief(1001)
	if got := s.Stats().Steals; got != 3 {
		t.Errorf("steals = %d after three creator steals, want 3", got)
	}
	if p := s.Probe(); p.Creators != 0 || p.Queued != 5 {
		t.Errorf("probe = %+v with the lane drained, want 0 creators of 5 queued", p)
	}
	// Deque next (oldest first; steal-half moves 1 of the remaining 3 over),
	// and the inbox item only once the victim's deque is empty.
	var rest []int
	for {
		it, ok := s.popFor(thief)
		if !ok {
			break
		}
		rest = append(rest, it)
	}
	if fmt.Sprint(rest) != fmt.Sprint([]int{0, 1, 2, 3, 50}) {
		t.Fatalf("after the creators the thief popped %v, want [0 1 2 3 50]", rest)
	}
	s.Yield(thief)
	s.Yield(victim)
	waitQuiesce(t, "stealing", s)
}

// TestCreatorLaneStorageBounded: a lane that is fed and drained in step —
// never empty, so never reset — reuses its storage instead of growing with
// the number of items that ever passed through it.
func TestCreatorLaneStorageBounded(t *testing.T) {
	s := NewStealing(2, func(int, int) {})
	held := holdAll(s)
	sh := &s.shards[held[0]]
	for i := 0; i < 4; i++ {
		s.SubmitCreator(i, held[0])
	}
	for i := 4; i < 10000; i++ {
		s.SubmitCreator(i, held[0])
		if got, ok := sh.takeLane(true); !ok || got != i-4 {
			t.Fatalf("took %d,%v, want %d", got, ok, i-4)
		}
	}
	if c := cap(sh.lane); c > 64 {
		t.Fatalf("lane storage grew to %d slots for 4 live items", c)
	}
	for i := 9996; i < 10000; i++ {
		if got, ok := sh.takeLane(false); !ok || got != i {
			t.Fatalf("took %d,%v, want %d", got, ok, i)
		}
	}
	s.Yield(held[0])
	s.Yield(held[1])
	waitQuiesce(t, "stealing", s)
}

// TestCreatorLaneSurvivesYieldAcquire: lane items outlive their submitter's
// token. The submitter yields (its token runs the oldest creator on a fresh
// goroutine), a blocked Acquire wins the token back at the next release
// point — waiter priority — and the rest of the lane is still queued, still
// in order, and Idle() says so.
func TestCreatorLaneSurvivesYieldAcquire(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			var order []int
			started := make(chan struct{}, 8)
			gate := make(chan struct{})
			var s *Stealing[int]
			s = NewStealing(workers, func(item, worker int) {
				for {
					mu.Lock()
					order = append(order, item)
					mu.Unlock()
					started <- struct{}{}
					<-gate
					next, ok := s.Finish(worker)
					if !ok {
						return
					}
					item = next
				}
			})
			held := holdAll(s)
			for i := 0; i < 3; i++ {
				s.SubmitCreator(100+i, held[0])
			}
			s.Yield(held[0]) // runs 100 on a new goroutine, which blocks on gate
			<-started
			got := make(chan int)
			go func() { got <- s.Acquire() }()
			for s.Probe().Waiters == 0 {
				runtime.Gosched()
			}
			gate <- struct{}{} // 100 finishes: the waiter outranks 101
			w := <-got
			if s.Idle() {
				t.Fatal("Idle() with two creators still in the lane")
			}
			if p := s.Probe(); p.Queued != 2 || p.Creators != 2 {
				t.Fatalf("probe = %+v after the hand-back, want 2 queued creators", p)
			}
			s.Yield(w)
			for i := 0; i < 2; i++ {
				<-started
				gate <- struct{}{}
			}
			for _, w := range held[1:] {
				s.Yield(w)
			}
			waitQuiesce(t, "stealing", s)
			mu.Lock()
			defer mu.Unlock()
			if fmt.Sprint(order) != "[100 101 102]" {
				t.Fatalf("order = %v, want [100 101 102]", order)
			}
		})
	}
}

// TestCreatorLaneConservation: creators submitted from outside and from
// running workers, each spawning deque children, at several widths — every
// item runs exactly once, and the pool quiesces with every token free and
// nothing queued (token conservation, no lost wakeup, Idle() exact).
func TestCreatorLaneConservation(t *testing.T) {
	const creators, fanout = 60, 5
	for _, workers := range []int{1, 2, 3, 8} {
		rng := rand.New(rand.NewSource(int64(workers)))
		total := creators * (1 + fanout)
		counts := make([]atomic.Int32, total)
		var wg sync.WaitGroup
		wg.Add(total)
		var s *Stealing[int]
		s = NewStealing(workers, func(item, worker int) {
			for {
				counts[item].Add(1)
				switch {
				case item < creators/2:
					// An outer creator: one nested creator, and children.
					s.SubmitCreator(creators/2+item, worker)
					fallthrough
				case item < creators:
					for c := 0; c < fanout; c++ {
						s.Submit(creators+item*fanout+c, worker)
					}
				}
				wg.Done()
				next, ok := s.Finish(worker)
				if !ok {
					return
				}
				item = next
			}
		})
		for i := 0; i < creators/2; i++ {
			s.SubmitCreator(i, -1-rng.Intn(2)*100) // the test goroutine holds no token
		}
		wg.Wait()
		waitQuiesce(t, "stealing", s)
		for i := range counts {
			if n := counts[i].Load(); n != 1 {
				t.Fatalf("w=%d: item %d ran %d times", workers, i, n)
			}
		}
		if p := s.Probe(); p.FreeTokens != workers || p.Creators != 0 {
			t.Fatalf("w=%d: probe at quiescence = %+v", workers, p)
		}
	}
}

package throttle

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/randtest"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{KindAuto: "auto", KindLocked: "locked", KindSharded: "sharded"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestShardPadding(t *testing.T) {
	if sz := unsafe.Sizeof(tshard{}); sz%64 != 0 {
		t.Fatalf("tshard is %d bytes, want a multiple of 64 (cache-line padding)", sz)
	}
}

func TestNewResolvesKinds(t *testing.T) {
	if _, ok := New(KindAuto, 8, 2).(*sharded); !ok {
		t.Error("KindAuto did not resolve to the sharded window")
	}
	if _, ok := New(KindLocked, 8, 2).(*locked); !ok {
		t.Error("KindLocked did not resolve to the locked window")
	}
	if _, ok := New(KindSharded, 8, 2).(*sharded); !ok {
		t.Error("KindSharded did not resolve to the sharded window")
	}
}

// TestReservedBound checks the hard bound on reserved-only admission: with
// every entry paid for by a Reserve, occupancy never exceeds the limit
// (sharded: credits are conserved) or limit plus the check-then-act
// overshoot of one slot per concurrent reserver (locked). A goroutine
// starts its previous entry before reserving the next one — in the real
// runtime the two sides run on different goroutines (submitters vs
// workers), and ready tasks always drain — so with a window smaller than
// the submitter count the slow path parks and wakes throughout.
func TestReservedBound(t *testing.T) {
	const submitters = 4
	perG := 2000
	if testing.Short() {
		perG = 400
	}
	for _, limit := range []int{3, 8} {
		for _, kind := range []Kind{KindLocked, KindSharded} {
			t.Run(fmt.Sprintf("%v/limit=%d", kind, limit), func(t *testing.T) {
				w := New(kind, limit, submitters)
				bound := int64(limit)
				if kind == KindLocked {
					bound += submitters - 1 // one check-then-submit overshoot per reserver
				}
				var maxOpen atomic.Int64
				var wg sync.WaitGroup
				barrier := make(chan struct{})
				for g := 0; g < submitters; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						<-barrier
						pending := 0
						for i := 0; i < perG; i++ {
							if pending > 0 {
								w.Started(g)
								pending--
							}
							_, prepaid := w.Reserve(g, nil)
							if prepaid {
								w.EnteredReserved()
							} else {
								w.Entered(1)
							}
							pending++
							if o := w.Open(); o > maxOpen.Load() {
								maxOpen.Store(o)
							}
						}
						for ; pending > 0; pending-- {
							w.Started(g)
						}
					}(g)
				}
				close(barrier)
				wg.Wait()
				if got := maxOpen.Load(); got > bound {
					t.Errorf("occupancy reached %d, want <= %d", got, bound)
				}
				if got := w.Open(); got != 0 {
					t.Errorf("Open() = %d at quiescence, want 0", got)
				}
			})
		}
	}
}

// TestDifferentialRandomSchedules drives the locked and sharded windows
// over identical seeded randomized submit/cascade/refund schedules — the
// same program both implementations must admit — mirroring the runtime's
// structure: submitter goroutines reserve and enter (and may park), while
// dedicated drainer goroutines start every window occupant (ready tasks
// always drain, which is what makes the throttle deadlock-free). For each
// run it asserts: completion (no deadlock, no lost wakeup), and quiescence
// counts that match across implementations — identical entry/start totals
// for the same seed, zero occupancy, and (white box) every sharded credit
// returned with no waiter left parked.
func TestDifferentialRandomSchedules(t *testing.T) {
	type result struct {
		entered, started int64
	}
	const submitters = 4
	run := func(kind Kind, limit int, seed uint64, perG int) result {
		w := New(kind, limit, submitters)
		var entered, started atomic.Int64
		var subs sync.WaitGroup
		for g := 0; g < submitters; g++ {
			subs.Add(1)
			go func(g int) {
				defer subs.Done()
				rng := rand.New(rand.NewPCG(seed, uint64(g)))
				for i := 0; i < perG; i++ {
					switch rng.IntN(8) {
					case 0, 1, 2, 3, 4: // throttled submit of a ready child
						_, prepaid := w.Reserve(g, nil)
						if prepaid {
							w.EnteredReserved()
						} else {
							w.Entered(1)
						}
						entered.Add(1)
					case 5: // throttled submit of a deferred child
						if _, prepaid := w.Reserve(g, nil); prepaid {
							w.Refund(g)
						}
					default: // dependency cascade readies a burst (may overdraw)
						n := int64(1 + rng.IntN(3))
						w.Entered(n)
						entered.Add(n)
					}
				}
			}(g)
		}
		// Drainers play the workers: start whatever occupies the window.
		stop := make(chan struct{})
		var drainers sync.WaitGroup
		for d := 0; d < 2; d++ {
			drainers.Add(1)
			go func(d int) {
				defer drainers.Done()
				for {
					if s := started.Load(); s < entered.Load() {
						if started.CompareAndSwap(s, s+1) {
							w.Started(d)
						}
						continue
					}
					select {
					case <-stop:
						if started.Load() == entered.Load() {
							return
						}
					default:
					}
					runtime.Gosched()
				}
			}(d)
		}
		done := make(chan struct{})
		go func() { subs.Wait(); close(stop); drainers.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			panic(fmt.Sprintf("%v window deadlocked (limit=%d seed=%d)", kind, limit, seed))
		}
		if got := w.Open(); got != 0 {
			panic(fmt.Sprintf("%v window: Open() = %d at quiescence, want 0", kind, got))
		}
		if s, ok := w.(*sharded); ok {
			credits := s.balance.Load()
			for i := range s.shards {
				credits += s.shards[i].cache.Load()
			}
			if credits != int64(limit) {
				panic(fmt.Sprintf("sharded window leaked credits: %d live, want %d", credits, limit))
			}
			if nw := s.nwait.Load(); nw != 0 {
				panic(fmt.Sprintf("sharded window: %d waiters at quiescence", nw))
			}
		}
		return result{entered: entered.Load(), started: started.Load()}
	}
	perG := 3000
	if testing.Short() {
		perG = 600
	}
	for _, limit := range []int{1, 2, 7, 64} {
		for _, s := range randtest.SeedRange(t, 0, 4) {
			seed := uint64(s)
			lres := run(KindLocked, limit, seed, perG)
			sres := run(KindSharded, limit, seed, perG)
			if lres != sres {
				t.Errorf("limit=%d seed=%d: quiescence counts diverge: locked=%+v sharded=%+v",
					limit, seed, lres, sres)
			}
			if lres.entered != lres.started {
				t.Errorf("limit=%d seed=%d: %d entries vs %d starts", limit, seed,
					lres.entered, lres.started)
			}
		}
	}
}

// TestParkAndWake forces the slow path: with a window of one, a second
// reserver must park and a Started must wake it.
func TestParkAndWake(t *testing.T) {
	for _, kind := range []Kind{KindLocked, KindSharded} {
		t.Run(kind.String(), func(t *testing.T) {
			w := New(kind, 1, 2)
			if _, prepaid := w.Reserve(0, nil); prepaid {
				w.EnteredReserved()
			} else {
				w.Entered(1)
			}
			got := make(chan struct{})
			go func() {
				_, prepaid := w.Reserve(1, nil)
				if prepaid {
					w.EnteredReserved()
				} else {
					w.Entered(1)
				}
				close(got)
			}()
			// The reserver must park: the window is full.
			select {
			case <-got:
				t.Fatal("second reserver passed a full window")
			case <-time.After(50 * time.Millisecond):
			}
			w.Started(0)
			select {
			case <-got:
			case <-time.After(5 * time.Second):
				t.Fatal("Started did not wake the parked reserver")
			}
			w.Started(1)
			if w.Stats().Parks == 0 {
				t.Error("Stats().Parks = 0, want at least one park")
			}
			if got := w.Open(); got != 0 {
				t.Errorf("Open() = %d, want 0", got)
			}
		})
	}
}

// TestWindowIntrospection pins the monitor accessors the runtime's leak
// checks read: Limit is the configured bound, Credits equals Limit - Open at
// quiescence (negative while cascade entries overdraw), and Waiters counts a
// reserver parked on a full window until a Started wakes it.
func TestWindowIntrospection(t *testing.T) {
	for _, kind := range []Kind{KindLocked, KindSharded} {
		t.Run(kind.String(), func(t *testing.T) {
			const limit = 4
			w := New(kind, limit, 2)
			quiescent := func(when string) {
				t.Helper()
				if got, want := w.Credits(), int64(limit)-w.Open(); got != want {
					t.Errorf("%s: Credits() = %d, want Limit-Open = %d", when, got, want)
				}
				if got := w.Waiters(); got != 0 {
					t.Errorf("%s: Waiters() = %d, want 0", when, got)
				}
			}
			if got := w.Limit(); got != limit {
				t.Fatalf("Limit() = %d, want %d", got, limit)
			}
			quiescent("fresh")
			w.Entered(limit + 2) // a cascade overdraws the bound
			quiescent("overdrawn")
			if got := w.Credits(); got != -2 {
				t.Errorf("overdrawn Credits() = %d, want -2", got)
			}
			for i := 0; i < limit+2; i++ {
				w.Started(i % 2)
			}
			quiescent("drained")

			// Fill the window through reservations, which (unlike cascade
			// entries) consume every credit, so the next reserver parks.
			for i := 0; i < limit; i++ {
				if _, prepaid := w.Reserve(0, nil); prepaid {
					w.EnteredReserved()
				} else {
					w.Entered(1)
				}
			}
			got := make(chan bool)
			go func() {
				_, prepaid := w.Reserve(1, nil)
				got <- prepaid
			}()
			deadline := time.Now().Add(5 * time.Second)
			for w.Waiters() != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("Waiters() = %d with a reserver blocked on a full window, want 1", w.Waiters())
				}
				time.Sleep(time.Millisecond)
			}
			w.Started(0)
			if <-got {
				w.EnteredReserved()
			} else {
				w.Entered(1)
			}
			for i := 0; i < limit; i++ {
				w.Started(i % 2)
			}
			quiescent("woken and drained")
		})
	}
}

// TestShardedBatchWakeHandsCreditsDirectly pins the batch-wake protocol:
// a completion burst against a full window hands its freed credits
// directly to the parked reservers — every wake carries a credit, no woken
// reserver retries the credit sources, and none re-parks. With K reservers
// parked before the burst begins, the Handoffs counter must account for
// every wake and Reparks must stay zero (the retry storm the one-at-a-time
// wake/recheck protocol used to produce under window pressure).
func TestShardedBatchWakeHandsCreditsDirectly(t *testing.T) {
	const parked = 8
	w := New(KindSharded, 1, 4)
	// Take the single credit so every later reserver parks.
	if _, prepaid := w.Reserve(0, nil); !prepaid {
		t.Fatal("sharded Reserve did not prepay")
	}
	w.EnteredReserved()
	var done sync.WaitGroup
	for i := 0; i < parked; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			w.Reserve(i%4, nil)
			w.EnteredReserved()
			// Chain the burst: each resumed reserver's task "starts",
			// freeing the slot for the next parked reserver.
			w.Started(i % 4)
		}(i)
	}
	// Wait until all reservers are parked, then start the burst.
	deadline := time.Now().Add(5 * time.Second)
	for w.Stats().Parks < parked {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d reservers parked", w.Stats().Parks, parked)
		}
		runtime.Gosched()
	}
	w.Started(0)
	done.Wait()
	st := w.Stats()
	if st.Handoffs != parked {
		t.Errorf("Handoffs = %d, want %d (every wake must carry its credit)", st.Handoffs, parked)
	}
	if st.Reparks != 0 {
		t.Errorf("Reparks = %d, want 0 (direct hand-off leaves nothing to retry)", st.Reparks)
	}
	if got := w.Open(); got != 0 {
		t.Errorf("Open() = %d, want 0", got)
	}
}

// TestShardedOverdrawBlocksHandOff pins the bound under cascade overdraw:
// while unreserved (cascade) entries hold occupancy above the limit, a
// returned credit must repay the overdrawn balance — not be handed to a
// parked reserver, which would admit a submitter the bound should block
// (and let the window run above its bound indefinitely under pressure).
// Only once the overdraft is repaid may a start admit the reserver.
func TestShardedOverdrawBlocksHandOff(t *testing.T) {
	w := New(KindSharded, 2, 2)
	// A dependency cascade readies 4 unreserved tasks: open=4, balance=-2.
	w.Entered(4)
	admitted := make(chan struct{})
	go func() {
		w.Reserve(0, nil)
		w.EnteredReserved()
		close(admitted)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for w.Stats().Parks < 1 {
		if time.Now().After(deadline) {
			t.Fatal("reserver did not park against the overdrawn window")
		}
		runtime.Gosched()
	}
	// Two starts repay the overdraft (balance -2 → 0, open 4 → 2 = limit);
	// neither may admit the parked reserver.
	w.Started(0)
	w.Started(0)
	select {
	case <-admitted:
		t.Fatal("reserver admitted while occupancy was above the bound")
	case <-time.After(50 * time.Millisecond):
	}
	// With the overdraft repaid, the next start frees a real slot.
	w.Started(0)
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("reserver not admitted after the overdraft was repaid")
	}
	// Retire the last cascade entry and the reserver's own entry.
	w.Started(0)
	w.Started(0)
	if got := w.Open(); got != 0 {
		t.Errorf("Open() = %d, want 0", got)
	}
}

// recordingYielder counts the token round-trips of parked reservers.
type recordingYielder struct {
	yields, acquires atomic.Int64
}

func (y *recordingYielder) Yield(worker int) { y.yields.Add(1) }
func (y *recordingYielder) Acquire() int     { y.acquires.Add(1); return 0 }

// TestYielderRoundTrip checks a parked reserver yields its worker token
// exactly once and reacquires exactly once, and that fast-path reserves
// perform no round-trip at all.
func TestYielderRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KindLocked, KindSharded} {
		t.Run(kind.String(), func(t *testing.T) {
			w := New(kind, 1, 2)
			y := &recordingYielder{}
			if _, prepaid := w.Reserve(0, y); prepaid {
				w.EnteredReserved()
			} else {
				w.Entered(1)
			}
			if y.yields.Load() != 0 || y.acquires.Load() != 0 {
				t.Fatal("fast-path Reserve performed a token round-trip")
			}
			done := make(chan struct{})
			go func() {
				w.Reserve(1, y)
				close(done)
			}()
			time.Sleep(20 * time.Millisecond)
			w.Started(0)
			<-done
			if y.yields.Load() != 1 || y.acquires.Load() != 1 {
				t.Errorf("parked Reserve: %d yields, %d acquires; want 1 and 1",
					y.yields.Load(), y.acquires.Load())
			}
		})
	}
}

// TestShardedBatchBorrow checks the token-bucket amortization: a worker's
// second reserve should be served from its credit cache, not the global
// balance.
func TestShardedBatchBorrow(t *testing.T) {
	w := NewSharded(64, 2).(*sharded)
	w.Reserve(0, nil)
	if got := w.Stats().Borrows; got != 1 {
		t.Fatalf("after first reserve: %d borrows, want 1", got)
	}
	if got := w.shards[0].cache.Load(); got != w.batch-1 {
		t.Fatalf("cache holds %d credits after borrow, want %d", got, w.batch-1)
	}
	w.Reserve(0, nil)
	if got := w.Stats().Borrows; got != 1 {
		t.Errorf("second reserve borrowed again (%d borrows), want cache hit", got)
	}
}

// TestShardedOverdraftRepaidBeforeCaching is the regression test for the
// persistent-overdraft bug: a credit returned while the balance is
// overdrawn (cascade entries pushed it negative) must repay the balance,
// not land in a worker cache — a cached credit would admit a reserver
// while occupancy is still at the bound, and the overdraft would persist
// through cache/reserve churn, permanently widening the window.
func TestShardedOverdraftRepaidBeforeCaching(t *testing.T) {
	const limit = 4
	w := NewSharded(limit, 2).(*sharded)
	w.Entered(6) // cascade overdraw: open=6, balance=-2
	w.Started(0)
	w.Started(0) // open=4 (at the bound); both credits must repay the balance
	if got := w.balance.Load(); got != 0 {
		t.Fatalf("balance = %d after repayment, want 0", got)
	}
	for i := range w.shards {
		if c := w.shards[i].cache.Load(); c != 0 {
			t.Fatalf("shard %d cached %d credits while occupancy is at the bound", i, c)
		}
	}
	// A reserver must now block: the window is exactly full.
	admitted := make(chan struct{})
	go func() {
		w.Reserve(0, nil)
		w.EnteredReserved()
		close(admitted)
	}()
	select {
	case <-admitted:
		t.Fatal("reserver admitted while occupancy is at the bound")
	case <-time.After(50 * time.Millisecond):
	}
	w.Started(1) // open=3: frees a real slot, wakes the reserver
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("reserver not admitted after a slot freed")
	}
	for w.Open() > 0 {
		w.Started(0)
	}
}

// TestShardedStealFromCache checks a reserver with an empty cache and
// empty balance can take a credit cached by another worker.
func TestShardedStealFromCache(t *testing.T) {
	w := NewSharded(4, 2).(*sharded)
	// Worker 0 borrows the whole balance into its cache (batch = 1 credit
	// held + cache), then drains the balance.
	for w.balance.Load() > 0 {
		w.Reserve(0, nil)
		w.EnteredReserved()
	}
	// Return one credit to worker 0's cache.
	w.Started(0)
	if w.shards[0].cache.Load() == 0 {
		t.Skip("credit went to the balance; steal path not exercised")
	}
	w.Reserve(1, nil)
	if got := w.Stats().Steals; got == 0 {
		t.Error("reserver with empty cache and balance did not steal")
	}
}

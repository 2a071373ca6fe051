// Package chaos is the runtime's failpoint registry: named injection
// sites threaded through every lock-free protocol edge (the steal-CAS
// retry, Dekker recheck and creator-lane take windows in internal/sched, the credit-steal
// and batch-wake hand-off in internal/throttle, the cascade ordering and
// pin-count release in internal/deps, the lane-refill path in
// internal/mempool, and the replay/taskwait/worksharing intercepts in
// internal/core). A site does nothing when the registry is disarmed — the
// fast path is a single atomic bool load and a predictable branch, cheap
// enough to leave compiled into production paths — and injects
// deterministic, PRNG-driven schedule perturbations when armed.
//
// Two site flavors keep the correctness oracles valid:
//
//   - delay sites (Maybe): widen a race window with a Gosched, a bounded
//     spin, or a double yield. The operation always happens — an injection
//     reorders, it never drops — so differential checksums, leak
//     accounting, and the throttle credit invariant must all still hold
//     under any schedule the injections provoke.
//   - decision sites (Force): deterministically take a slow path that a
//     quiet run rarely exercises — a forced lane-refill miss, a forced
//     replay invalidation. The slow paths are semantically transparent by
//     design; forcing them proves it.
//
// Decisions are a pure function of (Schedule.Seed, site, per-site call
// index): the same schedule over the same call stream injects at the same
// points, so a failing seed printed by the chaos soak replays with
// `go test -run TestChaosSoak -seed N`. Different goroutines interleave
// the per-site call stream nondeterministically — the *decision stream*
// is deterministic, the *assignment* of decisions to callers is the
// schedule noise being injected, which is exactly what a robustness soak
// wants.
//
// The registry is process-global (the instrumented packages cannot carry
// a handle through every call path): Enable/Disable must not race with
// each other, and tests that arm it must not run in parallel with tests
// that assume a quiet runtime. All counters and the armed flag are
// atomics, so armed-vs-checking races are benign and race-detector clean.
package chaos

import (
	"runtime"
	"sync/atomic"
)

// Site names one failpoint. The set covers every lock-free protocol edge
// the runtime relies on; docs/ARCHITECTURE.md ("Robustness") maps each
// site to the invariant it stresses.
type Site uint8

const (
	// SchedStealCAS sits in the stealing pool's per-victim visit, between
	// the size check and the steal CAS: a delay here forces the CAS to race
	// fresh pushes and concurrent thieves (ABA/retry paths).
	SchedStealCAS Site = iota
	// SchedTokenRetire sits in releaseToken between parking the token and
	// the Dekker recheck — the classic lost-wakeup window the recheck
	// exists to close.
	SchedTokenRetire
	// SchedDekkerRecheck sits in kick between the item publication and the
	// token-list recheck on the submitter side of the same Dekker pair.
	SchedDekkerRecheck
	// ThrottleCreditSteal sits in the sharded window's tryAcquire before
	// the cross-cache steal scan, racing it against concurrent Started
	// returns and other stealers.
	ThrottleCreditSteal
	// ThrottleBatchWake sits in put between the waiter-count check and the
	// credit hand-off, racing the hand-off against waiter deregistration.
	ThrottleBatchWake
	// DepsCascade sits in the sharded engine's CompleteInto between shard
	// visits, interleaving multi-object completion cascades.
	DepsCascade
	// DepsPinRelease sits immediately before the completion hold's pin
	// release, racing the recycle election between fragments and the
	// completion path.
	DepsPinRelease
	// MempoolRefill is a decision site in Lane.Get: force the lane to
	// flush to the global shard first, so the Get misses the lane and
	// exercises the refill/alloc batch-transfer path.
	MempoolRefill
	// ReplayInvalidate is a decision site in graph-region fingerprint
	// validation: force a mismatch, driving the mid-region invalidation
	// fallback (drain the admitted prefix, finish live, re-record next
	// time).
	ReplayInvalidate
	// TaskwaitIntercept sits in the continuation resume between the
	// intercept and the token hand-off send, delaying a parked taskwait's
	// resume while its subtree's completions race ahead.
	TaskwaitIntercept
	// WsAnnounceConsume sits in the worksharing helper intercept between
	// popping the invitation and joining the chunk drain, racing the
	// announce-hold release against the owner's completion.
	WsAnnounceConsume
	// SchedCreatorLane sits in the stealing pool's creator-lane take,
	// between the lane-count check and the inbox lock: a delay here races
	// a thief's take of a victim's oldest creator against the owner's own
	// inbox pop and rival thieves.
	SchedCreatorLane

	// NumSites is the site count (array sizing).
	NumSites = int(SchedCreatorLane) + 1
)

var siteNames = [NumSites]string{
	"sched-steal-cas",
	"sched-token-retire",
	"sched-dekker-recheck",
	"throttle-credit-steal",
	"throttle-batch-wake",
	"deps-cascade",
	"deps-pin-release",
	"mempool-refill",
	"replay-invalidate",
	"taskwait-intercept",
	"ws-announce-consume",
	"sched-creator-lane",
}

// String returns the site's stable table/report name.
func (s Site) String() string {
	if int(s) < NumSites {
		return siteNames[s]
	}
	return "unknown"
}

// Schedule is one armed failpoint configuration: a PRNG seed and a
// per-site injection rate. Rate[s] = n injects at site s on roughly one
// in n calls (deterministically, from the seeded PRNG); 0 disables the
// site. Rate 1 injects on every call.
type Schedule struct {
	Seed uint64
	Rate [NumSites]uint32
}

// UniformSchedule returns a schedule injecting at every site with the
// same 1-in-rate probability.
func UniformSchedule(seed uint64, rate uint32) Schedule {
	s := Schedule{Seed: seed}
	for i := range s.Rate {
		s.Rate[i] = rate
	}
	return s
}

// state is the armed registry: the schedule plus per-site call and
// injection counters. A fresh state is installed by every Enable, so
// counts always describe the current schedule.
type state struct {
	seed  uint64
	rate  [NumSites]uint32
	calls [NumSites]atomic.Uint64
	hits  [NumSites]atomic.Uint64
}

var (
	armed atomic.Bool
	cur   atomic.Pointer[state]
)

// Enabled reports whether a schedule is armed. Instrumented hot paths may
// use it to skip argument setup; Maybe/Force perform the same check.
func Enabled() bool { return armed.Load() }

// Enable arms the registry with the given schedule, resetting all
// counters. It must not race Disable or another Enable (serialize via the
// test that owns the run).
func Enable(s Schedule) {
	st := &state{seed: s.Seed, rate: s.Rate}
	cur.Store(st)
	armed.Store(true)
}

// Disable disarms the registry. Sites checked concurrently with Disable
// may still inject briefly; counters stop advancing once they observe the
// flag.
func Disable() { armed.Store(false) }

// Counts returns the per-site (calls, injections) counters of the current
// schedule. Zero for sites never reached or when nothing was ever armed.
func Counts() (calls, hits [NumSites]uint64) {
	st := cur.Load()
	if st == nil {
		return
	}
	for i := 0; i < NumSites; i++ {
		calls[i] = st.calls[i].Load()
		hits[i] = st.hits[i].Load()
	}
	return
}

// splitmix64 is the decision PRNG: a bijective mixer, so distinct
// (seed, site, index) triples draw independent-looking decisions while
// staying a pure function of the triple.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide draws site s's next decision; fire=true on an injection, and
// bits carries extra PRNG bits for the delay-flavor choice.
func decide(st *state, s Site) (fire bool, bits uint64) {
	r := st.rate[s]
	if r == 0 {
		return false, 0
	}
	n := st.calls[s].Add(1)
	bits = splitmix64(st.seed ^ uint64(s)<<56 ^ n)
	if r == 1 || bits%uint64(r) == 0 {
		st.hits[s].Add(1)
		return true, bits
	}
	return false, 0
}

// Maybe is a delay site: when armed and the schedule fires, it perturbs
// the caller's timing (yield, bounded spin, or double yield — never a
// dropped operation). The disarmed path is one atomic load and a branch.
func Maybe(s Site) {
	if !armed.Load() {
		return
	}
	st := cur.Load()
	if st == nil {
		return
	}
	if fire, bits := decide(st, s); fire {
		inject(bits)
	}
}

// Force is a decision site: it reports whether the caller should take its
// forced slow path. Always false when disarmed.
func Force(s Site) bool {
	if !armed.Load() {
		return false
	}
	st := cur.Load()
	if st == nil {
		return false
	}
	fire, _ := decide(st, s)
	return fire
}

// spinSink defeats dead-code elimination of the spin delay.
var spinSink atomic.Uint64

// inject performs one delay, flavor chosen from the decision bits:
// a scheduler yield (let any runnable goroutine into the window), a
// bounded spin (hold the core, shifting unsynchronized timing without a
// scheduling point), or a double yield (push the caller to the back of
// the run queue twice, the widest window).
func inject(bits uint64) {
	switch (bits >> 33) % 3 {
	case 0:
		runtime.Gosched()
	case 1:
		x := bits
		for i := 0; i < 192; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink.Store(x)
	default:
		runtime.Gosched()
		runtime.Gosched()
	}
}

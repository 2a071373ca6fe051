package core

// Stall watchdog (Config.Watchdog): a low-overhead liveness monitor for the
// runtime's lock-free admission protocols.
//
// The sharded ready pool closes its idle protocol Dekker-style: one side
// publishes (a queued item, a blocked acquirer) and rechecks, the other
// side publishes (a retired token) and rechecks; the throttle window pairs
// a cond-wait with a broadcast on every start. A bug in either drops a
// wakeup, and the failure mode is always the same *signature*: a runnable
// thing and an idle resource coexist indefinitely —
//
//   - queued tasks alongside free worker tokens,
//   - blocked Acquire calls alongside free worker tokens,
//   - parked throttle reservers alongside free window slots.
//
// In a correct pool each pairing exists only inside a transient admission
// window (microseconds); persisting is the lost-wakeup proof. The watchdog
// detects persistence with two mechanisms:
//
//   - per-worker heartbeat epochs: one padded counter per worker, bumped on
//     every task start and worksharing-helper entry. The per-beat cost
//     when enabled is two uncontended atomic writes on a worker-private
//     cache line; when disabled it is one nil check.
//   - a monitor goroutine sampling the pool (Stealing.Probe), the throttle
//     window, and the heartbeat sum every defaultWatchdogInterval. A stall
//     signature only accumulates suspicion while the heartbeat sum is
//     frozen — any dispatch progress resets it — and only fires after it
//     has persisted for defaultWatchdogBound.
//
// False-positive policy: the probe's counters are independent atomic reads,
// so single-sample contradictions are expected and never reported; a report
// requires the same signature with zero dispatch progress across every
// sample of a full bound. A long-running task body does not trip it (the
// signature concerns *unmatched* work and resources, not slow work), and
// chaos-injected delays (internal/chaos) are orders of magnitude below the
// default bound. The cost of a miss is low: the watchdog is a diagnosis
// aid, and a true lost wakeup persists forever, so any bound finds it.
//
// On detection the watchdog captures a StallReport — a structured snapshot
// of pool, throttle, leak-accounting, and per-worker state — and keeps it
// for Runtime.StallReports.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Heartbeat states (hbSlot.state): what the worker last started doing.
const (
	hbIdle uint32 = iota // never beaten: no task started on this worker yet
	hbTask
	hbWsHelper
)

var hbStateNames = [...]string{"idle", "task", "ws-helper"}

// hbSlot is one worker's heartbeat, padded to a cache line so beats of
// neighbouring workers never false-share.
type hbSlot struct {
	epoch atomic.Uint64
	state atomic.Uint32
	_     [52]byte // 12 -> 64
}

// beat records dispatch progress on worker w. Nil-check only when the
// watchdog is disabled; two worker-private atomic stores when enabled.
func (r *Runtime) beat(w int, state uint32) {
	if r.hb == nil || w < 0 || w >= len(r.hb) {
		return
	}
	s := &r.hb[w]
	s.state.Store(state)
	s.epoch.Add(1)
}

// epochSum aggregates every worker's heartbeat epoch; any dispatch progress
// anywhere changes the sum (epochs only increase).
func (r *Runtime) epochSum() uint64 {
	var sum uint64
	for i := range r.hb {
		sum += r.hb[i].epoch.Load()
	}
	return sum
}

// probeSample is one watchdog observation. The counters are read
// independently (not a consistent snapshot); see the false-positive policy
// above.
type probeSample struct {
	queued     int
	creators   int
	freeTokens int
	waiters    int
	thrWaiters int64
	thrCredits int64
	epochs     uint64
}

// stallDetector turns a stream of probe samples into stall verdicts. It is
// deliberately free of any Runtime dependency so the selftest can drive it
// (and the enclosing watchdog loop) against a synthetic lost wakeup.
type stallDetector struct {
	bound      time.Duration
	prevEpochs uint64
	havePrev   bool
	suspectFor time.Duration
}

// observe feeds one sample taken dt after the previous one. It returns a
// non-empty reason string — naming the signature — when a stall signature
// has persisted, with frozen heartbeats, for the full bound. After firing
// the suspicion timer re-arms, so a persisting stall re-reports once per
// bound rather than once per sample.
func (d *stallDetector) observe(s probeSample, dt time.Duration) string {
	progress := !d.havePrev || s.epochs != d.prevEpochs
	d.prevEpochs, d.havePrev = s.epochs, true
	var reason string
	switch {
	case s.queued > 0 && s.freeTokens > 0:
		reason = fmt.Sprintf("lost wakeup: %d queued tasks and %d free worker tokens coexist",
			s.queued, s.freeTokens)
	case s.waiters > 0 && s.freeTokens > 0:
		reason = fmt.Sprintf("lost wakeup: %d blocked acquirers and %d free worker tokens coexist",
			s.waiters, s.freeTokens)
	case s.thrWaiters > 0 && s.thrCredits > 0:
		reason = fmt.Sprintf("lost wakeup: %d parked throttle reservers and %d free window credits coexist",
			s.thrWaiters, s.thrCredits)
	}
	if reason == "" || progress {
		d.suspectFor = 0
		return ""
	}
	d.suspectFor += dt
	if d.suspectFor >= d.bound {
		d.suspectFor = 0
		return reason
	}
	return ""
}

// WorkerState is one worker's heartbeat snapshot inside a StallReport.
type WorkerState struct {
	// Epoch is the worker's heartbeat count (dispatch events observed).
	Epoch uint64
	// State names what the worker last started: "idle" (no dispatch yet),
	// "task", or "ws-helper".
	State string
}

// StallReport is the structured diagnosis the watchdog captures when a
// stall signature persists past the bound (Config.Watchdog, Runtime.
// StallReports). All counters are point-in-time reads at detection.
type StallReport struct {
	// Reason names the detected signature (always a lost-wakeup pairing).
	Reason string
	// Elapsed is the time since Run started.
	Elapsed time.Duration
	// Queued, FreeTokens, and Waiters are the ready pool's probe;
	// QueuedCreators is how many of the queued tasks are creators waiting
	// in a lane (a stall with only those queued points at the lane's
	// owner-or-thief take, not at the deques).
	Queued, QueuedCreators, FreeTokens, Waiters int
	// ThrottleWaiters/ThrottleCredits/ThrottleOpen describe the throttle
	// window (zero when unthrottled).
	ThrottleWaiters, ThrottleCredits, ThrottleOpen int64
	// Open and Live are the runtime's occupancy counters: dependency-ready
	// tasks not yet started, and instantiated tasks not yet completed.
	Open, Live int64
	// Outstanding leak accounting at detection: objects currently held out
	// of the dependency-engine pools, the Task free list, the replay
	// countdown-node pool, and the worksharing descriptor pool. A stalled-but-correct drain holds some;
	// wildly growing values point at a leak rather than a lost wakeup.
	DepsHeld, TasksHeld, ReplayHeld, WsHeld int64
	// Workers is the per-worker heartbeat state at detection.
	Workers []WorkerState
}

// String renders the report as a multi-line diagnosis.
func (sr *StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stall detected after %v: %s\n", sr.Elapsed.Round(time.Millisecond), sr.Reason)
	fmt.Fprintf(&b, "  pool: queued=%d (creators=%d) freeTokens=%d waiters=%d\n",
		sr.Queued, sr.QueuedCreators, sr.FreeTokens, sr.Waiters)
	fmt.Fprintf(&b, "  throttle: waiters=%d credits=%d open=%d\n",
		sr.ThrottleWaiters, sr.ThrottleCredits, sr.ThrottleOpen)
	fmt.Fprintf(&b, "  tasks: open=%d live=%d\n", sr.Open, sr.Live)
	fmt.Fprintf(&b, "  held: deps=%d tasks=%d replay=%d ws=%d\n",
		sr.DepsHeld, sr.TasksHeld, sr.ReplayHeld, sr.WsHeld)
	b.WriteString("  workers:")
	for i, w := range sr.Workers {
		fmt.Fprintf(&b, " %d:%s/%d", i, w.State, w.Epoch)
	}
	return b.String()
}

// watchdog is the sampling monitor. probe and render are closures so the
// selftest can run the identical loop against a synthetic pool.
type watchdog struct {
	interval time.Duration
	det      stallDetector
	probe    func() probeSample
	render   func(reason string, s probeSample) StallReport
	onStall  func(*StallReport)

	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	reports []StallReport
}

func newWatchdogLoop(interval, bound time.Duration,
	probe func() probeSample,
	render func(reason string, s probeSample) StallReport,
	onStall func(*StallReport)) *watchdog {
	return &watchdog{
		interval: interval,
		det:      stallDetector{bound: bound},
		probe:    probe,
		render:   render,
		onStall:  onStall,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// run samples until shutdown. Must be called on its own goroutine.
func (wd *watchdog) run() {
	defer close(wd.done)
	tick := time.NewTicker(wd.interval)
	defer tick.Stop()
	last := time.Now()
	for {
		select {
		case <-wd.stop:
			return
		case now := <-tick.C:
			dt := now.Sub(last)
			if dt <= 0 {
				dt = wd.interval
			}
			last = now
			s := wd.probe()
			if reason := wd.det.observe(s, dt); reason != "" {
				rep := wd.render(reason, s)
				wd.mu.Lock()
				wd.reports = append(wd.reports, rep)
				wd.mu.Unlock()
				if wd.onStall != nil {
					wd.onStall(&rep)
				}
			}
		}
	}
}

// shutdown stops the monitor and waits for its goroutine to exit.
func (wd *watchdog) shutdown() {
	close(wd.stop)
	<-wd.done
}

// snapshot copies the reports captured so far.
func (wd *watchdog) snapshot() []StallReport {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	return append([]StallReport(nil), wd.reports...)
}

// Watchdog defaults: the interval keeps the monitor's duty cycle trivial
// (a few hundred atomic reads per millisecond-scale period), the bound is
// ~100x any legitimate admission window, including chaos-widened ones.
const (
	defaultWatchdogInterval = 2 * time.Millisecond
	defaultWatchdogBound    = 250 * time.Millisecond
)

// newWatchdog wires the monitor loop to this runtime's pool, throttle,
// heartbeats, and stat accessors. The sampling period and bound are the
// defaults unless a test tuned them (wdInterval/wdBound).
func (r *Runtime) newWatchdog() *watchdog {
	interval, bound := defaultWatchdogInterval, defaultWatchdogBound
	if r.wdInterval > 0 {
		interval, bound = r.wdInterval, r.wdBound
	}
	probe := func() probeSample {
		var s probeSample
		p := r.sch.Probe()
		s.queued, s.creators, s.freeTokens, s.waiters = p.Queued, p.Creators, p.FreeTokens, p.Waiters
		if r.thr != nil {
			s.thrWaiters = r.thr.Waiters()
			s.thrCredits = r.thr.Credits()
		}
		s.epochs = r.epochSum()
		return s
	}
	return newWatchdogLoop(interval, bound, probe, r.renderStall, r.onStall)
}

// renderStall captures the full structured diagnosis for a fired stall.
func (r *Runtime) renderStall(reason string, s probeSample) StallReport {
	rep := StallReport{
		Reason:          reason,
		Elapsed:         time.Since(r.wallStart),
		Queued:          s.queued,
		QueuedCreators:  s.creators,
		FreeTokens:      s.freeTokens,
		Waiters:         s.waiters,
		ThrottleWaiters: s.thrWaiters,
		ThrottleCredits: s.thrCredits,
	}
	counts := r.taskCounts()
	rep.Open, rep.Live = counts.open, counts.live
	if r.thr != nil {
		rep.ThrottleOpen = r.thr.Open()
	}
	if ms, ok := r.MemStats(); ok {
		rep.DepsHeld = ms.Outstanding()
	}
	rep.TasksHeld = r.TaskPoolStats().Outstanding()
	rep.ReplayHeld = r.ReplayPoolStats().Outstanding()
	rep.WsHeld = r.WsPoolStats().Outstanding()
	rep.Workers = make([]WorkerState, len(r.hb))
	for i := range r.hb {
		st := r.hb[i].state.Load()
		name := "?"
		if int(st) < len(hbStateNames) {
			name = hbStateNames[st]
		}
		rep.Workers[i] = WorkerState{Epoch: r.hb[i].epoch.Load(), State: name}
	}
	return rep
}

// StallReports returns the stall diagnoses captured so far (always empty
// unless Config.Watchdog). Safe to call during and after the run.
func (r *Runtime) StallReports() []StallReport {
	if r.wd == nil {
		return nil
	}
	return r.wd.snapshot()
}

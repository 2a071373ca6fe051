package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// newTunedWatchdog builds a runtime from cfg whose watchdog samples every
// interval, reports a signature that persists for bound, and calls onStall
// on each report, so a test can run the monitor far more aggressively than
// the defaults.
func newTunedWatchdog(cfg Config, interval, bound time.Duration, onStall func(*StallReport)) *Runtime {
	rt := New(cfg)
	rt.wdInterval, rt.wdBound, rt.onStall = interval, bound, onStall
	return rt
}

// feed drives a detector with n identical samples dt apart and returns the
// first non-empty verdict.
func feed(d *stallDetector, s probeSample, dt time.Duration, n int) string {
	for i := 0; i < n; i++ {
		if reason := d.observe(s, dt); reason != "" {
			return reason
		}
	}
	return ""
}

func TestStallDetectorNamesQueuedTokenPairing(t *testing.T) {
	d := &stallDetector{bound: 10 * time.Millisecond}
	s := probeSample{queued: 3, freeTokens: 2, epochs: 7}
	reason := feed(d, s, time.Millisecond, 20)
	if reason == "" {
		t.Fatal("detector never fired on a persistent queued/free-token pairing")
	}
	for _, want := range []string{"lost wakeup", "3 queued tasks", "2 free worker tokens"} {
		if !strings.Contains(reason, want) {
			t.Errorf("reason %q does not name %q", reason, want)
		}
	}
}

func TestStallDetectorNamesAcquirerAndThrottleSignatures(t *testing.T) {
	d := &stallDetector{bound: 10 * time.Millisecond}
	reason := feed(d, probeSample{waiters: 1, freeTokens: 1}, time.Millisecond, 20)
	if !strings.Contains(reason, "1 blocked acquirers") {
		t.Errorf("acquirer signature not named: %q", reason)
	}
	d = &stallDetector{bound: 10 * time.Millisecond}
	reason = feed(d, probeSample{thrWaiters: 2, thrCredits: 1}, time.Millisecond, 20)
	if !strings.Contains(reason, "2 parked throttle reservers") ||
		!strings.Contains(reason, "1 free window credits") {
		t.Errorf("throttle signature not named: %q", reason)
	}
}

func TestStallDetectorIgnoresHealthyStates(t *testing.T) {
	// Progressing heartbeats: the pairing may persist across samples (a
	// busy pool shows transient contradictions constantly) but progress
	// resets suspicion every time.
	d := &stallDetector{bound: 5 * time.Millisecond}
	for i := 0; i < 100; i++ {
		s := probeSample{queued: 5, freeTokens: 1, epochs: uint64(i)}
		if reason := d.observe(s, time.Millisecond); reason != "" {
			t.Fatalf("fired despite heartbeat progress: %q", reason)
		}
	}
	// Frozen heartbeats but no stall signature: all tokens busy with
	// queued backlog (a long task body), or all idle with nothing queued.
	d = &stallDetector{bound: 5 * time.Millisecond}
	for i := 0; i < 100; i++ {
		if reason := d.observe(probeSample{queued: 9}, time.Millisecond); reason != "" {
			t.Fatalf("fired on busy-no-free-token state: %q", reason)
		}
		if reason := d.observe(probeSample{freeTokens: 4}, time.Millisecond); reason != "" {
			t.Fatalf("fired on idle-no-work state: %q", reason)
		}
	}
	// An intermittent signature (cleared before the bound elapses) never
	// accumulates enough suspicion.
	d = &stallDetector{bound: 5 * time.Millisecond}
	for i := 0; i < 100; i++ {
		s := probeSample{queued: 1, freeTokens: 1}
		if i%3 == 0 {
			s = probeSample{}
		}
		if reason := d.observe(s, time.Millisecond); reason != "" {
			t.Fatalf("fired on transient pairing: %q", reason)
		}
	}
}

// droppedKickPool wraps a real stealing pool and reports one more free
// token than the pool owns — the exact post-race state a token-retire path
// that skipped its Dekker recheck would leave: the item queued, the token
// parked free, and nobody responsible for matching them.
type droppedKickPool struct {
	*sched.Stealing[int]
}

func (p *droppedKickPool) Probe() sched.Probe {
	pr := p.Stealing.Probe()
	pr.FreeTokens++
	return pr
}

// TestWatchdogSelftestSyntheticLostWakeup induces a synthetic lost wakeup
// in a stealing pool and runs the real watchdog loop (the same code the
// runtime starts) against it, asserting the detector fires and names it.
func TestWatchdogSelftestSyntheticLostWakeup(t *testing.T) {
	pool := &droppedKickPool{sched.NewStealing(1, func(int, int) {})}
	// Hold the only real token so the submitted item must queue; the
	// phantom free token then completes the lost-wakeup state.
	pool.Acquire()
	pool.Submit(42, -1)

	var fired atomic.Int32
	wd := newWatchdogLoop(time.Millisecond, 20*time.Millisecond,
		func() probeSample {
			p := pool.Probe()
			return probeSample{queued: p.Queued, freeTokens: p.FreeTokens, waiters: p.Waiters}
		},
		func(reason string, s probeSample) StallReport {
			return StallReport{Reason: reason, Queued: s.queued, FreeTokens: s.freeTokens}
		},
		func(*StallReport) { fired.Add(1) })
	go wd.run()
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	wd.shutdown()

	reports := wd.snapshot()
	if len(reports) == 0 {
		t.Fatal("watchdog never detected the induced lost wakeup")
	}
	rep := reports[0]
	if !strings.Contains(rep.Reason, "lost wakeup") ||
		!strings.Contains(rep.Reason, "1 queued tasks") ||
		!strings.Contains(rep.Reason, "1 free worker tokens") {
		t.Errorf("report does not name the induced state: %q", rep.Reason)
	}
	if int(fired.Load()) != len(reports) {
		t.Errorf("onStall fired %d times for %d reports", fired.Load(), len(reports))
	}
	if s := rep.String(); !strings.Contains(s, "stall detected") {
		t.Errorf("String() rendering broken: %q", s)
	}
}

// TestWatchdogNoFalsePositives runs a busy real-mode program — nested
// submits, dependencies, taskwait, worksharing, a tight throttle — with the
// watchdog at an aggressive interval/bound and asserts zero reports.
func TestWatchdogNoFalsePositives(t *testing.T) {
	var reports atomic.Int32
	r := newTunedWatchdog(Config{
		Workers:           4,
		ThrottleOpenTasks: 8,
		Watchdog:          true,
		Debug:             true,
	}, time.Millisecond, 50*time.Millisecond, func(*StallReport) { reports.Add(1) })
	d := r.NewData("x", 256, 8)
	var sum atomic.Int64
	err := r.RunChecked(func(tc *TaskContext) {
		for i := 0; i < 200; i++ {
			iv := Interval{Lo: int64(i % 16), Hi: int64(i%16) + 1}
			tc.Submit(TaskSpec{
				Label: "leaf",
				Deps:  []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv}}},
				Body: func(tc *TaskContext) {
					sum.Add(1)
					if tc.Depth() == 1 {
						tc.Submit(TaskSpec{Label: "nested", Body: func(*TaskContext) { sum.Add(1) }})
						tc.Taskwait()
					}
				},
			})
		}
		tc.Worksharing(WorksharingSpec{
			Label: "ws", Lo: 0, Hi: 64, Grain: 4,
			Body: func(tc *TaskContext, lo, hi int64) { sum.Add(hi - lo) },
		})
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := reports.Load(); got != 0 {
		t.Fatalf("watchdog false-positived %d times: %v", got, r.StallReports())
	}
	if got := r.StallReports(); len(got) != 0 {
		t.Fatalf("unexpected stall reports: %v", got)
	}
	if sum.Load() != 200+200+64 {
		t.Fatalf("workload miscounted: %d", sum.Load())
	}
	// Heartbeats must actually have been beating (the negative above would
	// be vacuous if beat were never wired).
	if r.epochSum() == 0 {
		t.Fatal("no heartbeat ever recorded")
	}
}

// TestWatchdogDisabled asserts the zero-config path: no slots, no monitor,
// no reports.
func TestWatchdogDisabled(t *testing.T) {
	r := New(Config{Workers: 2})
	if err := r.RunChecked(func(tc *TaskContext) {}); err != nil {
		t.Fatal(err)
	}
	if r.hb != nil || r.wd != nil || r.StallReports() != nil {
		t.Fatal("watchdog state allocated despite Config.Watchdog=false")
	}
}

package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func sampleTracer() *Tracer {
	t := New(3)
	kA := t.KindID("sort")
	kB := t.KindID("sum")
	t.Record(0, kA, 100, 200)
	t.Record(0, kB, 200, 260)
	t.Record(1, kA, 120, 180)
	t.Record(2, kB, 150, 400)
	return t
}

func TestWriteChromeRoundTrip(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []ChromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	byName := map[string]int{}
	var total int64
	for _, e := range events {
		if e.Phase != "X" || e.Cat != "task" {
			t.Errorf("event %+v: wrong phase or category", e)
		}
		if e.Dur <= 0 {
			t.Errorf("event %+v: non-positive duration", e)
		}
		if e.TID < 0 || e.TID > 2 {
			t.Errorf("event %+v: tid outside worker range", e)
		}
		byName[e.Name]++
		total += e.Dur
	}
	if byName["sort"] != 2 || byName["sum"] != 2 {
		t.Errorf("kind counts = %v, want sort:2 sum:2", byName)
	}
	if total != tr.BusyTime() {
		t.Errorf("total event duration %d != busy time %d", total, tr.BusyTime())
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	tr := New(2)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []ChromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("empty trace produced %d events", len(events))
	}
}

func TestWritePRVShape(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.WritePRV(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "#Paraver") {
		t.Fatalf("missing Paraver header; first line %q", sc.Text())
	}
	// Extent is 400-100 = 300 and 3 workers.
	if !strings.Contains(sc.Text(), ":300:1(3):1:1(3:1)") {
		t.Errorf("header = %q, want extent 300 and 3 cpus", sc.Text())
	}
	var records, legend int
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "1:"):
			records++
			parts := strings.Split(line, ":")
			if len(parts) != 8 {
				t.Errorf("state record %q has %d fields, want 8", line, len(parts))
			}
			if parts[7] != "1" && parts[7] != "2" {
				t.Errorf("state record %q: state %s not a registered kind", line, parts[7])
			}
		case strings.HasPrefix(line, "# state"):
			legend++
		default:
			t.Errorf("unexpected line %q", line)
		}
	}
	if records != 4 {
		t.Errorf("got %d state records, want 4", records)
	}
	if legend != 2 {
		t.Errorf("got %d legend lines, want 2", legend)
	}
}

// TestConcurrentEmittersExport exercises the tracer's concurrency
// contract under -race: Record is lock-free per worker because the
// scheduler serializes each worker's token, so one goroutine per worker
// recording simultaneously — while all of them race on the shared KindID
// registry — must be clean, and the trace must then export completely in
// both formats. This is the CI race pass's witness that real-mode tracing
// (internal/core writes spans from every worker) is data-race free.
func TestConcurrentEmittersExport(t *testing.T) {
	const workers, spansPer, kinds = 8, 200, 5
	tr := New(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spansPer; i++ {
				// Kind registration is shared and mutex-protected; hammer
				// it from every emitter, including novel names mid-run.
				k := tr.KindID(fmt.Sprintf("kind%d", (w+i)%kinds))
				start := int64(i * 10)
				tr.Record(w, k, start, start+7)
			}
		}(w)
	}
	wg.Wait()

	if got := len(tr.Spans()); got != workers*spansPer {
		t.Fatalf("recorded %d spans, want %d", got, workers*spansPer)
	}
	if got := len(tr.Kinds()); got != kinds {
		t.Fatalf("registered %d kinds, want %d", got, kinds)
	}
	var chrome bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var events []ChromeEvent
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(events) != workers*spansPer {
		t.Errorf("chrome export has %d events, want %d", len(events), workers*spansPer)
	}
	var prv bytes.Buffer
	if err := tr.WritePRV(&prv); err != nil {
		t.Fatal(err)
	}
	records := 0
	for sc := bufio.NewScanner(&prv); sc.Scan(); {
		if strings.HasPrefix(sc.Text(), "1:") {
			records++
		}
	}
	if records != workers*spansPer {
		t.Errorf("PRV export has %d state records, want %d", records, workers*spansPer)
	}
}

func TestWritePRVTimesRebased(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.WritePRV(&buf); err != nil {
		t.Fatal(err)
	}
	// The first span of worker 0 starts at extent origin (100 -> 0).
	if !strings.Contains(buf.String(), "1:1:1:1:1:0:100:1\n") {
		t.Errorf("worker 0's first record not rebased to 0:\n%s", buf.String())
	}
}

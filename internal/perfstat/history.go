package perfstat

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The committed trajectory: BENCH_history.json is a JSON array of
// records, one per accepted perftrack run, newest last. Each record
// carries the commit, the environment, and every entry's trimmed sample
// with its CV accounting — enough for a later run to re-test
// significance against it, and for plotting pipelines to draw the
// trajectory without re-running anything.

// HistoryEntry is one benchmark entry's validated sample in a record.
type HistoryEntry struct {
	// Name identifies the measurement, e.g. "deps/sharded-pool/w4".
	Name string `json:"name"`
	// Unit is the lower-is-better unit of Values, e.g. "ns/op".
	Unit string `json:"unit"`
	// Values are the trimmed measurements the gate tests against.
	Values []float64 `json:"values"`
	// Mean, CV summarize Values (denormalized for plotting pipelines).
	Mean float64 `json:"mean"`
	CV   float64 `json:"cv"`
	// Reruns counts extra measurements the CV validation spent; Stable
	// is false when the rerun budget ran out above MaxCV.
	Reruns int  `json:"reruns,omitempty"`
	Stable bool `json:"stable"`
}

// Record is one perftrack run.
type Record struct {
	// Commit is the git revision the run measured (or "unknown").
	Commit string `json:"commit"`
	// Time is the RFC3339 collection timestamp.
	Time string `json:"time"`
	// Host describes the environment: go version, GOMAXPROCS, the host's
	// logical CPU count and CPU model (empty where the platform does not
	// say).
	Go       string `json:"go"`
	MaxProcs int    `json:"maxprocs"`
	NumCPU   int    `json:"numcpu,omitempty"`
	CPU      string `json:"cpu,omitempty"`
	// Degraded marks a run taken with GOMAXPROCS below its widest entry's
	// worker count: its "parallel" entries measured goroutine interleaving,
	// not contention. Kept for the record, never used as a baseline.
	Degraded bool `json:"degraded,omitempty"`
	// Quick marks reduced-op smoke collections, which are never
	// comparable to full runs.
	Quick bool `json:"quick,omitempty"`
	// Entries are the validated samples, sorted by name.
	Entries []HistoryEntry `json:"entries"`
}

// Entry returns the named entry and whether it exists.
func (r *Record) Entry(name string) (HistoryEntry, bool) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return HistoryEntry{}, false
}

// Sort orders the entries by name, the canonical on-disk order.
func (r *Record) Sort() {
	sort.Slice(r.Entries, func(i, j int) bool { return r.Entries[i].Name < r.Entries[j].Name })
}

// LoadHistory reads the record array from path. A missing file is an
// empty history, not an error.
func LoadHistory(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("perfstat: parsing %s: %w", path, err)
	}
	return recs, nil
}

// LastComparable returns the newest non-degraded record with the same
// Quick class, or nil — a reduced-op smoke run must never gate against a
// full run, and nothing gates against a run that lacked the cores for its
// own entries.
func LastComparable(recs []Record, quick bool) *Record {
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Quick == quick && !recs[i].Degraded {
			return &recs[i]
		}
	}
	return nil
}

// AppendHistory appends rec to the array at path, creating the file if
// needed. The write is atomic (temp file + rename) so an interrupted run
// cannot corrupt the committed trajectory.
func AppendHistory(path string, rec Record) error {
	recs, err := LoadHistory(path)
	if err != nil {
		return err
	}
	rec.Sort()
	recs = append(recs, rec)
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

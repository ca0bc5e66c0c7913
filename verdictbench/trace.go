package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval at a call boundary of the benchmark: a
// layer's public function (or the whole operation), the span that caused
// it, the operation it belongs to, and the work it did as counts.
type span struct {
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	N      int64  `json:"n,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans, with their counts, in memory and writes them as one
// file at exit. A nil tracer records nothing: untraced runs pass nil.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextOp int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()}
}

// newOp allocates an operation id.
func (t *tracer) newOp() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// add records a span measured by the caller and returns its index (the
// parent handle of its children), or -1 on a nil tracer.
func (t *tracer) add(name, class string, parent, op int, start, end time.Time, n, bytes int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Class: class, Parent: parent, Op: op, N: n, Bytes: bytes,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return len(t.spans) - 1
}

// named returns the spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores the trace as one JSON file.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// sumDur totals the durations of spans.
func sumDur(ss []span) time.Duration {
	var d time.Duration
	for _, s := range ss {
		d += s.dur()
	}
	return d
}

// sumN totals the work counts of spans.
func sumN(ss []span) int64 {
	var n int64
	for _, s := range ss {
		n += s.N
	}
	return n
}

// perUnitNs is the mean duration per unit of work, in nanoseconds.
func perUnitNs(ss []span) float64 {
	return ratio(float64(sumDur(ss)), float64(sumN(ss)))
}

// meanMs is the mean span duration in milliseconds (0 with no spans).
func meanMs(ss []span) float64 {
	return ratio(float64(sumDur(ss))/1e6, float64(len(ss)))
}

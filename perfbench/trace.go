package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req,
// the ID of the request's root span; Parent is the span that caused this
// one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, after the
// measured phases. A nil *tracer records nothing, which is how the
// untraced phases run.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID returns a fresh span ID (never 0).
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// now returns nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// end records span id, which started at start (a now() reading), as
// ending now, and returns its duration in nanoseconds.
func (t *tracer) end(name string, id, parent, req uint64, start int64) int64 {
	s := span{Name: name, ID: id, Parent: parent, Req: req, Start: start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.dur()
}

// named returns the spans called name, in recording order.
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

// spanStats summarises spans of one name.
type spanStats struct {
	calls int
	busy  int64 // summed durations, ns
}

func statsOf(spans []span) spanStats {
	st := spanStats{calls: len(spans)}
	for _, s := range spans {
		st.busy += s.dur()
	}
	return st
}

// meanUS is the mean span duration in microseconds (0 with no calls).
func (st spanStats) meanUS() float64 {
	if st.calls == 0 {
		return 0
	}
	return float64(st.busy) / float64(st.calls) / 1e3
}

// busyS is the summed span duration in seconds.
func (st spanStats) busyS() float64 { return float64(st.busy) / 1e9 }

// selfTimeS sums, over parents, each parent's self time: its duration
// minus the union of its children's intervals.
func selfTimeS(parents, children []span) float64 {
	byParent := make(map[uint64][]interval)
	for _, c := range children {
		byParent[c.Parent] = append(byParent[c.Parent], interval{c.Start, c.End})
	}
	var total int64
	for _, p := range parents {
		total += selfTime(interval{p.Start, p.End}, byParent[p.ID])
	}
	return float64(total) / 1e9
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

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

// maxSpans bounds the in-memory span store; spans past it are counted but
// not kept.
const maxSpans = 1 << 20

// span is one timed call into a layer. Spans of one run, slice, search or
// live message share a trace id; parent links a span to the span whose
// work caused it (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so parts call it unconditionally.
type tracer struct {
	epoch   time.Time
	ids     atomic.Uint64
	dropped atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	t      *tracer
	trace  uint64
	id     uint64
	parent uint64
	name   string
	start  time.Time
}

// root opens a span that starts a new trace.
func (t *tracer) root(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.ids.Add(1)
	return spanRef{t: t, trace: id, id: id, name: name, start: time.Now()}
}

// rootAt opens a root span that started at a past instant (a live message
// starts when it was due).
func (t *tracer) rootAt(name string, start time.Time) spanRef {
	s := t.root(name)
	s.start = start
	return s
}

// childSpan records a closed child of s with known bounds.
func (s spanRef) childSpan(name string, start, end time.Time) {
	c := s.child(name)
	c.start = start
	c.endAt(end)
}

// child opens a span caused by s, in s's trace.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return spanRef{t: s.t, trace: s.trace, id: s.t.ids.Add(1), parent: s.id, name: name, start: time.Now()}
}

// end closes the span now.
func (s spanRef) end() { s.endAt(time.Now()) }

// endAt closes the span at a given instant (a live message ends when the
// receiver's hook stamped it).
func (s spanRef) endAt(at time.Time) {
	t := s.t
	if t == nil {
		return
	}
	sp := span{
		Trace: s.trace, ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start.Sub(t.epoch).Nanoseconds(), End: at.Sub(t.epoch).Nanoseconds(),
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + int(t.dropped.Load())
}

// layerTime is the span summary of one span name.
type layerTime struct {
	Count  int     `json:"count"`
	Total  float64 `json:"total_ms"`
	Self   float64 `json:"self_ms"`
	MeanUS float64 `json:"mean_us"`
}

// selfTimes sums, per span name, the total time and the self time: a
// span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	childTime := make(map[uint64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for _, s := range t.spans {
		lt := out[s.Name]
		d := s.End - s.Start
		lt.Count++
		lt.Total += float64(d) / 1e6
		lt.Self += float64(d-childTime[s.ID]) / 1e6
		out[s.Name] = lt
	}
	for k, lt := range out {
		lt.MeanUS = lt.Total * 1e3 / float64(lt.Count)
		out[k] = lt
	}
	return out
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}

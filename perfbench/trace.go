package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one call the benchmark made into a module, timed from the
// benchmark's side. Spans of one grid cell or service job share Group.
type span struct {
	Name   string `json:"name"`
	Group  int64  `json:"group"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory for the traced run; they are written
// out once the run ends. A nil *tracer records nothing, so the untraced
// run calls the same code with no spans and no clock reads.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, group, parent int64) int64 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Group: group, ID: id, Parent: parent, Start: start, End: -1})
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// record adds a span whose bounds were taken elsewhere.
func (t *tracer) record(name string, group, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Group: group, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanIndex answers duration and self-time queries over a snapshot.
type spanIndex struct {
	spans    []span
	children map[int64][]interval
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[int64][]interval)}
	for _, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], interval{s.Start, s.End})
		}
	}
	return ix
}

// open counts spans that were begun and never ended.
func (ix *spanIndex) open() int {
	n := 0
	for _, s := range ix.spans {
		if s.End < s.Start {
			n++
		}
	}
	return n
}

// named returns the spans with the given name, in recording order.
func (ix *spanIndex) named(name string) []span {
	var out []span
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// self is s's duration minus the part its children cover.
func (ix *spanIndex) self(s span) int64 { return selfTime(s.Start, s.End, ix.children[s.ID]) }

// durationsMS lists the durations of the named spans in milliseconds.
func (ix *spanIndex) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range ix.named(name) {
		out = append(out, float64(s.End-s.Start)/1e6)
	}
	return out
}

// write stores the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent names the span that caused this one ("" for a request's root).
type span struct {
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps the replay's spans in memory. A nil *tracer records
// nothing: that is the untraced pass the overhead is measured against.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin returns the start of a span (the zero time when untraced, so the
// untraced pass does not even read the clock).
func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records the span that started at start.
func (t *tracer) end(req int, parent, name string, start time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent,
		Start: start.Sub(t.t0), End: time.Since(t.t0)})
}

// durations groups span durations by name.
func (t *tracer) durations() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	return out
}

// childTotals sums, per request, the spans directly under a root named
// root: the share of the request the traced layers account for.
func (t *tracer) childTotals(root string) []time.Duration {
	sum := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent == root {
			sum[s.Req] += s.End - s.Start
		}
	}
	out := make([]time.Duration, 0, len(sum))
	for _, d := range sum {
		out = append(out, d)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// layer of the program. Spans of one op share Op; the op's own root
// span has Parent 0.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"startNs"` // since the traced phase began
	End    int64              `json:"endNs"`
	Label  string             `json:"label,omitempty"` // scheme or job kind
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced phase's spans in memory; write saves them when
// the run ends. Safe for concurrent use.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores s with the interval [start, end]. A zero s.ID takes a
// fresh one.
func (t *tracer) record(s span, start, end time.Time) {
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON lines.
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
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// opTrace is the tracing handle one op receives: nil when tracing is
// off, so untraced ops pay one nil check per call site.
type opTrace struct {
	t  *tracer
	op int // the op's root span ID
}

// child records a span under the op's root span.
func (o *opTrace) child(name, label string, start, end time.Time, attrs map[string]float64) {
	o.t.record(span{Parent: o.op, Op: o.op, Name: name, Label: label, Attrs: attrs}, start, end)
}

// byName groups spans by name.
func byName(spans []span) map[string][]span {
	m := make(map[string][]span)
	for _, s := range spans {
		m[s.Name] = append(m[s.Name], s)
	}
	return m
}

// totalDur sums span durations.
func totalDur(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d
}

// attrSum sums one attribute across spans.
func attrSum(spans []span, key string) float64 {
	var v float64
	for _, s := range spans {
		v += s.Attrs[key]
	}
	return v
}

// msList returns span durations in milliseconds.
func msList(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur().Seconds() * 1e3
	}
	return out
}

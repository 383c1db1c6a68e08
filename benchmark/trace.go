package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one round share its id;
// Parent is the index of the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	rounds int
}

func newTracer() *tracer {
	// Sized for a whole run so span appends do not allocate mid-window.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

// newRound returns a fresh round id.
func (t *tracer) newRound() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rounds++
	return t.rounds
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, round int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Round: round})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durationsMs returns the duration of every span with the given name.
func (t *tracer) durationsMs(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].End-t.spans[i].Start)/1e6)
		}
	}
	return out
}

// selfShare reports, over every span named parent, the share of its time
// not covered by child spans — the layer's self time over its total.
func (t *tracer) selfShare(parent string) float64 {
	if t == nil {
		return 0
	}
	var total, children int64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == parent {
			total += s.End - s.Start
		} else if s.Parent >= 0 && t.spans[s.Parent].Name == parent {
			children += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(total-children) / float64(total)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

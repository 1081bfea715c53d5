package main

import (
	"time"
)

// span is one timed interval at a layer boundary. Spans of one statement
// share Stmt; Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. It is used by one goroutine at a time —
// the traced replay runs a single client — so the open-span stack gives each
// span its parent and spans nest by time containment. A nil tracer records
// nothing, which is how the timed runs execute.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	stmt  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Stmt: t.stmt,
		Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTimes are the nanoseconds and span counts of one trace, by span name.
type layerTimes struct {
	total map[string]int64 // span durations
	self  map[string]int64 // durations minus the part child spans cover
	count map[string]int64
}

// summarize folds a trace into per-name totals. A span's self time is its
// duration minus its direct children's, so self times partition the time of
// the root spans exactly when spans nest.
func summarize(spans []span) layerTimes {
	lt := layerTimes{total: map[string]int64{}, self: map[string]int64{}, count: map[string]int64{}}
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		lt.total[s.Name] += d
		lt.self[s.Name] += d - children[i]
		lt.count[s.Name]++
	}
	return lt
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer of the replayed pipeline. Spans of
// one replayed request share Req; Parent is the enclosing span's ID
// (0 for a request's root span, whose IDs start at 1).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced replay: every method is a no-op and span just calls fn.
type tracer struct {
	epoch  time.Time
	spans  []span
	stack  []int // indexes into spans of the open spans
	req    int
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// request opens the root span of replayed request req.
func (t *tracer) request(req int, name string) {
	if t == nil {
		return
	}
	t.req = req
	t.open(name)
}

// done closes the current request's root span.
func (t *tracer) done() {
	if t != nil {
		t.close()
	}
}

func (t *tracer) open(name string) {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name,
		Start: time.Since(t.epoch),
	})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) close() {
	n := len(t.stack) - 1
	t.spans[t.stack[n]].End = time.Since(t.epoch)
	t.stack = t.stack[:n]
}

// span times fn as a child of the innermost open span.
func (t *tracer) span(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	t.open(name)
	defer t.close()
	return fn()
}

// count adds n to a work counter recorded at a layer boundary.
func (t *tracer) count(name string, n int64) {
	if t != nil {
		t.counts[name] += n
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its child spans cover. Root spans (Parent 0) are the
// requests themselves and are reported under their own names too.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	lo, hi := parent.Start, parent.Start
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if s > hi {
			total += hi - lo
			lo, hi = s, s
		}
		hi = max(hi, e)
	}
	return total + hi - lo
}

// write dumps the spans and counters as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		Counts map[string]int64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

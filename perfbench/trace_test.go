package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request.batch", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "solve", Start: 10 * ms, End: 90 * ms},
		{ID: 3, Parent: 2, Name: "core.minimize", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 2, Name: "ser.compute", Start: 60 * ms, End: 70 * ms},
		{ID: 5, Parent: 1, Name: "benchfmt.write", Start: 90 * ms, End: 95 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"request.batch":  15 * ms,
		"solve":          40 * ms,
		"core.minimize":  30 * ms,
		"ser.compute":    10 * ms,
		"benchfmt.write": 5 * ms,
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, got[name], d)
		}
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 50, End: 80}, {Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 150}}
	if got := covered(parent, kids); got != 30+30+10 {
		t.Errorf("covered = %v, want 70", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.request(7, "request.read")
	_ = tr.span("benchfmt.parse", func() error { return nil })
	_ = tr.span("service.job_key", func() error {
		return tr.span("benchfmt.write", func() error { return nil })
	})
	tr.done()
	tr.count("core.steps", 3)
	parents := map[string]string{}
	names := map[int]string{}
	for _, s := range tr.spans {
		names[s.ID] = s.Name
		if s.Req != 7 {
			t.Errorf("span %s has request %d, want 7", s.Name, s.Req)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	for _, s := range tr.spans {
		parents[s.Name] = names[s.Parent]
	}
	for child, parent := range map[string]string{
		"request.read": "", "benchfmt.parse": "request.read",
		"service.job_key": "request.read", "benchfmt.write": "service.job_key",
	} {
		if parents[child] != parent {
			t.Errorf("parent of %s = %q, want %q", child, parents[child], parent)
		}
	}
	if tr.counts["core.steps"] != 3 {
		t.Errorf("core.steps = %d, want 3", tr.counts["core.steps"])
	}
	var off *tracer
	called := false
	if err := off.span("x", func() error { called = true; return nil }); err != nil || !called {
		t.Errorf("nil tracer must just call the function")
	}
}

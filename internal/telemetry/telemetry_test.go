package telemetry

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEnumNamesRoundTrip(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		got, ok := ParsePhase(p.String())
		if !ok || got != p {
			t.Errorf("ParsePhase(%q) = %v, %v", p.String(), got, ok)
		}
		if strings.Contains(p.String(), "Phase(") {
			t.Errorf("phase %d has no name", p)
		}
	}
	for c := Counter(0); c < NumCounters; c++ {
		got, ok := ParseCounter(c.String())
		if !ok || got != c {
			t.Errorf("ParseCounter(%q) = %v, %v", c.String(), got, ok)
		}
	}
	for g := Gauge(0); g < NumGauges; g++ {
		got, ok := ParseGauge(g.String())
		if !ok || got != g {
			t.Errorf("ParseGauge(%q) = %v, %v", g.String(), got, ok)
		}
	}
	if _, ok := ParsePhase("no-such-phase"); ok {
		t.Error("ParsePhase accepted an unknown name")
	}
}

// TestCollectorConcurrent hammers one trace, the run's only event
// collector, with counter and gauge events from many goroutines — the
// shape par workers produce — while the owner opens and closes phases,
// so events land on whichever span is innermost. Run under -race; the
// fold must still sum exactly.
func TestCollectorConcurrent(t *testing.T) {
	tr := NewTrace(TraceID{})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Count(CounterSteps, 1)
				tr.Count(CounterParBusyNanos, 2)
				tr.Gauge(GaugePeakRetimingSpan, int64(i))
			}
		}()
	}
	for i := 0; i < 200; i++ {
		tr.SpanStart(PhaseMinimize)
		tr.SpanStart(PhaseLabelPatch)
		tr.SpanEnd(PhaseLabelPatch, nil)
		tr.SpanEnd(PhaseMinimize, nil)
	}
	wg.Wait()
	tr.Finish()
	s := tr.Doc("", "", "", "", false).Stats()
	if got := s.Counter(CounterSteps); got != workers*perWorker {
		t.Errorf("steps = %d, want %d", got, workers*perWorker)
	}
	if got := s.Counter(CounterParBusyNanos); got != 2*workers*perWorker {
		t.Errorf("par-busy-ns = %d, want %d", got, 2*workers*perWorker)
	}
	if got := s.Gauge(GaugePeakRetimingSpan); got != perWorker-1 {
		t.Errorf("gauge max = %d, want %d", got, perWorker-1)
	}
	if got := s.Phases[PhaseMinimize].Count; got != 200 {
		t.Errorf("minimize spans = %d, want 200", got)
	}
	if got := s.Phases[PhaseLabelPatch].Count; got != 200 {
		t.Errorf("label-patch spans = %d, want 200", got)
	}
}

// TestCollectorMergeConcurrent drives one trace from goroutines that
// each open and close spans and record counters and gauges in the same
// interleaving, then checks the fold merged every event exactly. Run
// with -race. Concurrent same-name spans nest under one another, so the
// totals only hold if the fold walks the whole tree.
func TestCollectorMergeConcurrent(t *testing.T) {
	tr := NewTrace(TraceID{})
	const gs, rounds = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < gs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				tr.SpanStart(PhaseLabelPatch)
				tr.SpanEnd(PhaseLabelPatch, nil)
				tr.Count(Counter(0), 2)
				tr.Gauge(Gauge(0), int64(i*rounds+j))
			}
		}(i)
	}
	wg.Wait()
	tr.Finish()
	st := tr.Doc("", "", "", "", false).Stats()
	if got := st.Phases[PhaseLabelPatch].Count; got != gs*rounds {
		t.Fatalf("span count = %d, want %d", got, gs*rounds)
	}
	if got := st.Counters[0]; got != gs*rounds*2 {
		t.Fatalf("counter = %d, want %d", got, gs*rounds*2)
	}
	if max := st.Gauges[0]; max != (gs-1)*rounds+rounds-1 {
		t.Fatalf("gauge max = %d, want %d", max, (gs-1)*rounds+rounds-1)
	}
}

// TestCollectorSpans checks span bookkeeping through the fold: a
// completed span's duration, a failed span's error count, an unmatched
// SpanEnd ignored, and wall-clock taken from the document.
func TestCollectorSpans(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.SpanStart(PhaseInit)
	time.Sleep(time.Millisecond)
	tr.SpanEnd(PhaseInit, nil)
	tr.SpanStart(PhaseMinimize)
	tr.SpanEnd(PhaseMinimize, errors.New("boom"))
	tr.SpanEnd(PhaseGains, nil) // unmatched: ignored
	tr.Finish()
	s := tr.Doc("", "", "", "", false).Stats()
	if !s.Observed(PhaseInit) || s.Phases[PhaseInit].Total < time.Millisecond {
		t.Errorf("init span not recorded: %+v", s.Phases[PhaseInit])
	}
	if s.Phases[PhaseMinimize].Errs != 1 {
		t.Errorf("minimize errs = %d, want 1", s.Phases[PhaseMinimize].Errs)
	}
	if s.Observed(PhaseGains) {
		t.Error("unmatched SpanEnd produced a span")
	}
	if s.Wall <= 0 {
		t.Error("wall-clock not tracked")
	}
}

// TestJSONLRoundTrip records a run with nested, merged and failed spans
// plus counters and gauges, writes it and a second run as encoded
// document lines (the on-disk trace format), reads the lines back with
// DecodeTraceDoc, and checks the fold the seranalyze -trace report is
// printed from.
func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.SpanStart(PhaseSynthesize)
	tr.SpanEnd(PhaseSynthesize, nil)
	tr.SpanStart(PhaseTierMinObsWin)
	tr.SpanStart(PhaseInit)
	tr.SpanStart(PhaseELWRecompute)
	tr.Count(CounterELWRecomputes, 1)
	tr.SpanEnd(PhaseELWRecompute, nil)
	tr.Count(CounterInitSweeps, 40)
	time.Sleep(time.Millisecond)
	tr.SpanEnd(PhaseInit, nil)
	tr.SpanStart(PhaseMinimize)
	tr.Count(CounterSeedArcs, 12)
	tr.Count(CounterClosureRebuilds, 2)
	for i := 0; i < 3; i++ { // merged level-2 spans accumulate counters
		tr.SpanStart(PhaseFindViolations)
		tr.Count(CounterSteps, 1)
		tr.Count(CounterMoveVertices, 5)
		tr.SpanStart(PhaseELWRecompute)
		tr.Count(CounterELWRecomputes, 1)
		tr.SpanEnd(PhaseELWRecompute, nil)
		tr.SpanEnd(PhaseFindViolations, nil)
	}
	tr.Count(CounterCommits, 2)
	tr.Gauge(GaugePeakRetimingSpan, 4)
	tr.Gauge(GaugePeakRetimingSpan, 2) // below max: ignored
	tr.SpanEnd(PhaseMinimize, nil)
	tr.SpanEnd(PhaseTierMinObsWin, errors.New("stalled"))
	tr.SpanEnd(PhaseGains, nil) // unmatched: ignored
	tr.Count(CounterTierTransitions, 1)
	tr.Finish()

	live := tr.Doc("", "s27", "done", "minobswin", false)
	fv := live.Root.Find("find-violations")
	if fv == nil || fv.Count != 3 || fv.Counters["steps"] != 3 {
		t.Fatalf("merged find-violations = %+v, want count 3 with 3 steps", fv)
	}
	if live.Root.Counters["tier-transitions"] != 1 {
		t.Fatalf("event outside every span not on the root: %v", live.Root.Counters)
	}
	other := NewTrace(TraceID{})
	other.Count(CounterCommits, 1)
	other.Finish()
	var lines bytes.Buffer
	for _, d := range []*TraceDoc{live, other.Doc("", "s386", "done", "", false)} {
		lines.Write(d.Encode())
		lines.WriteByte('\n')
	}
	var docs []*TraceDoc
	sc := bufio.NewScanner(&lines)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		d, err := DecodeTraceDoc(sc.Bytes())
		if err != nil {
			t.Fatalf("line %d: %v", len(docs)+1, err)
		}
		docs = append(docs, d)
	}
	if len(docs) != 2 || docs[0].Name != "s27" || docs[1].Name != "s386" {
		t.Fatalf("read back %d documents, want s27 and s386", len(docs))
	}
	if got := docs[1].Stats().Counter(CounterCommits); got != 1 {
		t.Errorf("run s386 commits = %d, want 1", got)
	}
	doc := docs[0]
	s := doc.Stats()
	for c, want := range map[Counter]int64{
		CounterSteps: 3, CounterCommits: 2, CounterELWRecomputes: 4,
		CounterSeedArcs: 12, CounterClosureRebuilds: 2, CounterTierTransitions: 1,
		CounterMoveVertices: 15, CounterInitSweeps: 40,
	} {
		if got := s.Counter(c); got != want {
			t.Errorf("%s = %d, want %d", c, got, want)
		}
	}
	if got := s.Gauge(GaugePeakRetimingSpan); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
	if s.Phases[PhaseTierMinObsWin].Errs != 1 {
		t.Errorf("tier errs = %d, want 1", s.Phases[PhaseTierMinObsWin].Errs)
	}
	if got := s.Phases[PhaseELWRecompute].Count; got != 4 {
		t.Errorf("elw-recompute spans = %d, want 4 (summed over both parents)", got)
	}
	if !s.Observed(PhaseInit) || s.Phases[PhaseInit].Total < time.Millisecond {
		t.Errorf("init span not folded: %+v", s.Phases[PhaseInit])
	}
	if s.Observed(PhaseGains) {
		t.Error("unmatched SpanEnd produced a span")
	}
	if s.Wall != time.Duration(doc.WallNS) || s.Wall <= 0 {
		t.Errorf("wall = %v, doc wall_ns = %d", s.Wall, doc.WallNS)
	}
	if level, frac := s.Coverage(); level != 0 || frac <= 0 || frac > 1 {
		t.Errorf("coverage = level %d, %.2f", level, frac)
	}

	sum := &RunStats{}
	sum.Add(s)
	sum.Add(s)
	if sum.Counter(CounterSteps) != 6 || sum.Gauge(GaugePeakRetimingSpan) != 4 ||
		sum.Phases[PhaseMinimize].Count != 2 || sum.Wall != 2*s.Wall {
		t.Errorf("Add: steps %d gauge %d minimize %d wall %v",
			sum.Counter(CounterSteps), sum.Gauge(GaugePeakRetimingSpan), sum.Phases[PhaseMinimize].Count, sum.Wall)
	}

	var report strings.Builder
	if err := s.WriteReport(&report, doc.Name); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	for _, want := range []string{"== run s27 ==", "tier:minobswin", "minimize", "steps", "seed-arcs", "peak-retiming-span"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report missing %q:\n%s", want, report.String())
		}
	}
}

func TestOrNop(t *testing.T) {
	if OrNop(nil) != Nop {
		t.Error("OrNop(nil) != Nop")
	}
	tr := NewTrace(TraceID{})
	if OrNop(tr) != Recorder(tr) {
		t.Error("OrNop replaced a live recorder")
	}
}

// TestNopZeroAllocs pins the overhead budget: recording against the no-op
// recorder must not allocate, so always-on instrumentation is free when no
// recorder is configured.
func TestNopZeroAllocs(t *testing.T) {
	rec := OrNop(nil)
	if n := testing.AllocsPerRun(1000, func() {
		rec.SpanStart(PhaseMinimize)
		rec.Count(CounterSteps, 1)
		rec.Gauge(GaugePeakRetimingSpan, 7)
		rec.SpanEnd(PhaseMinimize, nil)
	}); n != 0 {
		t.Errorf("Nop recorder allocates %.1f allocs/op, want 0", n)
	}
}

// TestTraceCountZeroAllocs keeps the live counter path allocation-free
// once a span holds the counter: the solver's inner loop counts into the
// same few spans over and over.
func TestTraceCountZeroAllocs(t *testing.T) {
	tr := NewTrace(TraceID{})
	tr.SpanStart(PhaseMinimize)
	tr.Count(CounterSteps, 1)
	tr.Gauge(GaugePeakRetimingSpan, 3)
	if n := testing.AllocsPerRun(1000, func() {
		tr.Count(CounterSteps, 1)
		tr.Gauge(GaugePeakRetimingSpan, 3)
	}); n != 0 {
		t.Errorf("Trace counters allocate %.1f allocs/op, want 0", n)
	}
}

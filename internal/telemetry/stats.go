package telemetry

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// PhaseStats aggregates one phase's spans.
type PhaseStats struct {
	// Count is the number of completed spans.
	Count int
	// Total is the summed span duration.
	Total time.Duration
	// Errs is the number of spans that ended with a non-nil error.
	Errs int
}

// RunStats is the run-level telemetry summary: wall-clock, per-phase
// durations and counts, counter totals and gauge maxima. It is a fold of
// a trace document (TraceDoc.Stats), never recorded directly.
type RunStats struct {
	// Wall is the run's wall-clock time (the document's wall_ns).
	Wall time.Duration
	// Phases is indexed by Phase.
	Phases [NumPhases]PhaseStats
	// Counters is indexed by Counter.
	Counters [NumCounters]int64
	// Gauges is indexed by Gauge (maximum sampled value).
	Gauges [NumGauges]int64
}

// Stats folds the document's span tree into a RunStats: spans named
// after a Phase add their durations, instance counts and errors to that
// phase; counters are summed over every span and gauges keep their
// maximum. Spans still open when the document was taken contribute their
// elapsed time. Names this build does not know (from a newer writer) are
// skipped.
func (d *TraceDoc) Stats() *RunStats {
	s := &RunStats{Wall: time.Duration(d.WallNS)}
	d.Root.Walk(func(_ int, sp *Span) {
		if p, ok := ParsePhase(sp.Name); ok {
			ps := &s.Phases[p]
			ps.Count += int(sp.Count)
			ps.Total += time.Duration(sp.DurNS)
			ps.Errs += sp.Errs
		}
		for name, v := range sp.Counters {
			if c, ok := ParseCounter(name); ok {
				s.Counters[c] += v
			}
		}
		for name, v := range sp.Gauges {
			if g, ok := ParseGauge(name); ok && v > s.Gauges[g] {
				s.Gauges[g] = v
			}
		}
	})
	return s
}

// Add folds o into s, as if both runs were one: wall-clock, phase
// totals, counts and errors and counter totals add up; gauges keep the
// larger maximum.
func (s *RunStats) Add(o *RunStats) {
	s.Wall += o.Wall
	for p := range s.Phases {
		s.Phases[p].Count += o.Phases[p].Count
		s.Phases[p].Total += o.Phases[p].Total
		s.Phases[p].Errs += o.Phases[p].Errs
	}
	for c := range s.Counters {
		s.Counters[c] += o.Counters[c]
	}
	for g := range s.Gauges {
		s.Gauges[g] = max(s.Gauges[g], o.Gauges[g])
	}
}

// Observed reports whether at least one span of p completed.
func (s *RunStats) Observed(p Phase) bool { return s.Phases[p].Count > 0 }

// Counter returns the total of c.
func (s *RunStats) Counter(c Counter) int64 { return s.Counters[c] }

// Gauge returns the maximum sampled value of g.
func (s *RunStats) Gauge(g Gauge) int64 { return s.Gauges[g] }

// LevelTotal sums the durations of all phases at the given hierarchy
// level. Same-level spans are disjoint, so the sum is comparable to Wall.
func (s *RunStats) LevelTotal(level int) time.Duration {
	var t time.Duration
	for p := Phase(0); p < NumPhases; p++ {
		if p.Level() == level {
			t += s.Phases[p].Total
		}
	}
	return t
}

// Coverage returns the shallowest hierarchy level with completed spans
// and the fraction of Wall its summed durations account for. A healthy
// trace covers ≥ 90% of wall-clock at its top level.
func (s *RunStats) Coverage() (level int, frac float64) {
	for l := 0; l <= 3; l++ {
		for p := Phase(0); p < NumPhases; p++ {
			if p.Level() == l && s.Phases[p].Count > 0 {
				if s.Wall > 0 {
					frac = float64(s.LevelTotal(l)) / float64(s.Wall)
				}
				return l, frac
			}
		}
	}
	return 0, 0
}

// PhaseBreakdown renders the level-1 pipeline stages as a compact
// "phase pct" list ordered by descending share, e.g.
// "minimize 62% analysis 21% init 9%". top caps the number of entries
// (0 = all). It returns "-" when no level-1 span completed.
func (s *RunStats) PhaseBreakdown(top int) string {
	type pt struct {
		p Phase
		d time.Duration
	}
	var ps []pt
	var total time.Duration
	for p := Phase(0); p < NumPhases; p++ {
		if p.Level() == 1 && s.Phases[p].Count > 0 {
			ps = append(ps, pt{p, s.Phases[p].Total})
			total += s.Phases[p].Total
		}
	}
	if len(ps) == 0 || total == 0 {
		return "-"
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].d != ps[j].d {
			return ps[i].d > ps[j].d
		}
		return ps[i].p < ps[j].p
	})
	if top > 0 && len(ps) > top {
		ps = ps[:top]
	}
	out := ""
	for i, e := range ps {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s %.0f%%", e.p, 100*float64(e.d)/float64(total))
	}
	return out
}

// WriteReport prints the human-readable phase/counter report of one run,
// as `seranalyze -trace` prints it for each trace document.
func (s *RunStats) WriteReport(w io.Writer, name string) error {
	if name == "" {
		name = "(unnamed)"
	}
	level, frac := s.Coverage()
	if _, err := fmt.Fprintf(w, "== run %s ==\nwall-clock %v; level-%d phase coverage %.1f%%\n\n",
		name, s.Wall.Round(time.Microsecond), level, 100*frac); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-26s %8s %14s %8s %6s\n", "phase", "calls", "total", "% wall", "errs")
	for p := Phase(0); p < NumPhases; p++ {
		ps := s.Phases[p]
		if ps.Count == 0 {
			continue
		}
		pct := 0.0
		if s.Wall > 0 {
			pct = 100 * float64(ps.Total) / float64(s.Wall)
		}
		indent := ""
		for i := 0; i < p.Level(); i++ {
			indent += "  "
		}
		fmt.Fprintf(w, "%-26s %8d %14v %7.1f%% %6d\n",
			indent+p.String(), ps.Count, ps.Total.Round(time.Microsecond), pct, ps.Errs)
	}
	any := false
	for c := Counter(0); c < NumCounters; c++ {
		if s.Counters[c] == 0 {
			continue
		}
		if !any {
			fmt.Fprintf(w, "\n%-26s %14s\n", "counter", "total")
			any = true
		}
		fmt.Fprintf(w, "%-26s %14d\n", c, s.Counters[c])
	}
	any = false
	for g := Gauge(0); g < NumGauges; g++ {
		if s.Gauges[g] == 0 {
			continue
		}
		if !any {
			fmt.Fprintf(w, "\n%-26s %14s\n", "gauge", "max")
			any = true
		}
		fmt.Fprintf(w, "%-26s %14d\n", g, s.Gauges[g])
	}
	_, err := fmt.Fprintln(w)
	return err
}

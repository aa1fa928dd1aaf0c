package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place")
	}
	if got := medianSeconds([]time.Duration{3 * time.Second, time.Second, 2 * time.Second}); got != 2 {
		t.Errorf("medianSeconds = %v, want 2", got)
	}
}

func TestSampleCountRule(t *testing.T) {
	if got := minSamples(0.9); got != 100 {
		t.Errorf("minSamples(0.9) = %d, want 100", got)
	}
	if got := minSamples(0.5); got != 20 {
		t.Errorf("minSamples(0.5) = %d, want 20", got)
	}
	if got := beyond(100, 0.9); got != tailSamples {
		t.Errorf("beyond(100, 0.9) = %d, want %d", got, tailSamples)
	}
	if got := beyond(99, 0.9); got >= tailSamples {
		t.Errorf("beyond(99, 0.9) = %d, want fewer than %d", got, tailSamples)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ms := range [][]metric{endToEnd, perLayer} {
		if err := checkMetrics(ms); err != nil {
			t.Error(err)
		}
	}
	for _, bad := range [][]metric{
		{{"_lead", "s", true}},
		{{"has space", "s", true}},
		{{"ok", "", true}},
		{{"ok", "not a unit", true}},
		{{"twice", "s", true}, {"twice", "s", true}},
	} {
		if checkMetrics(bad) == nil {
			t.Errorf("checkMetrics(%v) accepted an invalid list", bad)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %v", len(spec.Workloads), names)
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, names[i])
		}
	}
	type entry struct{ name, unit, better string }
	want := func(ms []metric) []entry {
		var out []entry
		for _, m := range ms {
			better := "higher"
			if m.lowerBetter {
				better = "lower"
			}
			out = append(out, entry{m.name, m.unit, better})
		}
		return out
	}
	var e2e, layers []entry
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, entry{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, entry{m.Name, m.Unit, m.Better})
	}
	for _, c := range []struct {
		what      string
		got, want []entry
	}{{"end_to_end", e2e, want(endToEnd)}, {"per_layer", layers, want(perLayer)}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", c.what, i, c.got[i], c.want[i])
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics reports the first invalid or repeated name or unit.
func checkMetrics(ms []metric) error {
	seen := map[string]bool{}
	for _, m := range ms {
		if !nameRE.MatchString(m.name) {
			return fmt.Errorf("metric name %q is not valid", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			return fmt.Errorf("metric %s: unit %q is not valid", m.name, m.unit)
		}
		if seen[m.name] {
			return fmt.Errorf("metric name %q is used twice", m.name)
		}
		seen[m.name] = true
	}
	return nil
}

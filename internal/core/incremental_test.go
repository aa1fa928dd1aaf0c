package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/telemetry"
)

// TestPropertyIncrementalMatchesFullRecompute runs the solver on random
// instances in three modes — dirty-region patching (the default), patching
// with the oracle cross-check armed, and the pre-refactor full recompute —
// and requires bit-identical results: same objective, same retiming, same
// iteration counts, same violation tallies. This is the refactor's
// behavior-preservation property at the solver level.
func TestPropertyIncrementalMatchesFullRecompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, gains, obsInt, phi := randomInstance(rng, 3+rng.Intn(18))
		if g.Check() != nil {
			return true
		}
		p := elw.Params{Phi: phi, Ts: 0, Th: 2}
		seedLab, err := elw.ComputeLabels(g, graph.NewRetiming(g), p)
		if err != nil {
			return true
		}
		// A valid P2' budget: the initial state's own hold slack, as the
		// Section V initialization would pick (same as the MinObsWin
		// invariants property test).
		rmin, found := seedLab.MinHoldSlack(g, graph.NewRetiming(g), p)
		if !found {
			rmin = g.MinDelay()
		}
		if _, ok := seedLab.CheckP1(g); !ok {
			return true
		}
		for _, win := range []bool{false, true} {
			base := Options{Phi: phi, Ts: 0, Th: 2, Rmin: rmin, ELWConstraints: win}

			full := base
			full.FullLabelRecompute = true
			want, err := Minimize(g, gains, obsInt, full)
			if err != nil {
				t.Fatalf("seed %d win=%v full: %v", seed, win, err)
			}

			for _, mode := range []struct {
				name string
				mut  func(*Options)
			}{
				{"patch", func(o *Options) {}},
				{"patch-seeded", func(o *Options) { o.SeedLabels = seedLab }},
				{"checked", func(o *Options) { o.SeedLabels = seedLab; o.CheckLabels = true }},
			} {
				opt := base
				mode.mut(&opt)
				got, err := Minimize(g, gains, obsInt, opt)
				if err != nil {
					t.Fatalf("seed %d win=%v %s: %v", seed, win, mode.name, err)
				}
				sameViol := len(got.Violations) == len(want.Violations)
				for k, n := range want.Violations {
					sameViol = sameViol && got.Violations[k] == n
				}
				if got.Objective != want.Objective || got.Initial != want.Initial ||
					got.Rounds != want.Rounds || got.Steps != want.Steps || !sameViol {
					t.Fatalf("seed %d win=%v %s: got obj=%d rounds=%d steps=%d viol=%v, full recompute obj=%d rounds=%d steps=%d viol=%v",
						seed, win, mode.name, got.Objective, got.Rounds, got.Steps, got.Violations,
						want.Objective, want.Rounds, want.Steps, want.Violations)
				}
				for v := range want.R {
					if got.R[v] != want.R[v] {
						t.Fatalf("seed %d win=%v %s: r[%d] = %d, full recompute %d",
							seed, win, mode.name, v, got.R[v], want.R[v])
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalTelemetrySplit checks that the default mode actually
// patches (hit ratio > 0) and that the ablation mode never does.
func TestIncrementalTelemetrySplit(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var g *graph.Graph
	var gains, obsInt []int64
	var rmin, phi float64
	var patched bool
	for try := 0; try < 100 && !patched; try++ {
		g, gains, obsInt, phi = randomInstance(rng, 12+rng.Intn(10))
		if g.Check() != nil {
			continue
		}
		p := elw.Params{Phi: phi, Ts: 0, Th: 2}
		seedLab, err := elw.ComputeLabels(g, graph.NewRetiming(g), p)
		if err != nil {
			continue
		}
		var found bool
		rmin, found = seedLab.MinHoldSlack(g, graph.NewRetiming(g), p)
		if !found {
			rmin = g.MinDelay()
		}
		if _, ok := seedLab.CheckP1(g); !ok {
			continue
		}
		tr := telemetry.NewTrace(telemetry.TraceID{})
		if _, err := Minimize(g, gains, obsInt, Options{
			Phi: phi, Ts: 0, Th: 2, Rmin: rmin, ELWConstraints: true,
			SeedLabels: seedLab, Recorder: tr,
		}); err != nil {
			t.Fatal(err)
		}
		patched = tr.Doc("", "", "", "", false).Stats().Counter(telemetry.CounterLabelPatches) > 0
	}
	if !patched {
		t.Fatal("no random instance ever took the patch path")
	}
	tr := telemetry.NewTrace(telemetry.TraceID{})
	if _, err := Minimize(g, gains, obsInt, Options{
		Phi: phi, Ts: 0, Th: 2, Rmin: rmin, ELWConstraints: true,
		FullLabelRecompute: true, Recorder: tr,
	}); err != nil {
		t.Fatal(err)
	}
	if n := tr.Doc("", "", "", "", false).Stats().Counter(telemetry.CounterLabelPatches); n != 0 {
		t.Fatalf("ablation mode patched %d times", n)
	}
}

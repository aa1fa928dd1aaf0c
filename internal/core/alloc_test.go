package core

import (
	"math/rand"
	"testing"

	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/solverstate"
)

// TestAllocRegressionClosureEngine pins the optimizer's per-step paths at
// zero allocations once their buffers have grown: a closure-engine round
// (reset, exact cut, AddConstraint extending the cached set and hitting a
// frozen vertex, dropForcing), a findViolations pass and a solver-state
// Retarget between two overlapping tentative sets. The first two used to
// allocate a Go map per call.
func TestAllocRegressionClosureEngine(t *testing.T) {
	// Vertices 1..15 gain, 16..63 lose. Arcs: a forcing chain 15 → 14 →
	// … → 2 inside the gaining set, a losing chain 16 → … → 40 and a
	// losing chain 41 → … → 63 → host.
	const n = 64
	gains := make([]int64, n)
	for v := 1; v < n; v++ {
		gains[v] = -1
		if v < 16 {
			gains[v] = 5
		}
	}
	e := newClosureEngine(n, gains, nil)
	round := func() {
		e.reset()
		e.Freeze(0)
		for v := int32(15); v > 2; v-- {
			e.AddConstraint(v, v-1)
		}
		for v := int32(16); v < 40; v++ {
			e.AddConstraint(v, v+1)
		}
		for v := int32(41); v < n-1; v++ {
			e.AddConstraint(v, v+1)
		}
		e.AddConstraint(n-1, 0)
		if m, _ := e.PositiveSet(); len(m) != 15 {
			t.Fatalf("positive set %v, want vertices 1..15", m)
		}
		// Extends the cached set by the 25-vertex losing chain.
		e.AddConstraint(1, 16)
		if !e.mask[40] {
			t.Fatal("chain 16..40 not absorbed")
		}
		// Reaches the host: drops 2..15, which force 2.
		e.AddConstraint(2, 41)
		if e.mask[15] || !e.mask[1] {
			t.Fatal("forcers of 2 not dropped")
		}
		for _, m := range e.members {
			e.dropForcing(m)
		}
	}
	round()
	if got := testing.AllocsPerRun(50, round); got != 0 {
		t.Errorf("closure-engine round: %.0f allocs, want 0", got)
	}

	g, st, inI, phi := violatingMove(t)
	scan := newViolationScan(g.NumVertices())
	opt := Options{Phi: phi, Th: 2, Rmin: g.MinDelay(), ELWConstraints: true}
	params := elw.Params{Phi: opt.Phi, Th: opt.Th}
	order := []Kind{KindP0, KindP2, KindP1}
	pass := func() {
		out, err := scan.findViolations(g, st, inI, params, opt, order, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("no violations")
		}
	}
	pass()
	if got := testing.AllocsPerRun(50, pass); got != 0 {
		t.Errorf("findViolations: %.0f allocs, want 0", got)
	}

	var members []int32
	for v, in := range inI {
		if in {
			members = append(members, int32(v))
		}
	}
	unit := func(int32) int32 { return 1 }
	retarget := func() {
		st.Retarget(members[1:], unit)
		st.Retarget(members, unit)
	}
	retarget()
	if got := testing.AllocsPerRun(50, retarget); got != 0 {
		t.Errorf("Retarget: %.0f allocs, want 0", got)
	}
	st.Rollback()
}

// violatingMove opens a transaction moving the positive-gain vertices of
// a random instance by one register each, such that the move breaks P0.
// It returns the moved set as a mask and the instance's clock period.
func violatingMove(t *testing.T) (*graph.Graph, *solverstate.State, []bool, float64) {
	t.Helper()
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, gains, obsInt, phi := randomInstance(rng, 40)
		if g.Check() != nil {
			continue
		}
		st, err := solverstate.New(g, graph.NewRetiming(g), solverstate.Config{
			Params: elw.Params{Phi: phi, Th: 2}, ObsInt: obsInt,
		})
		if err != nil {
			continue
		}
		inI := make([]bool, g.NumVertices())
		var members []int32
		for v := 1; v < g.NumVertices(); v++ {
			if gains[v] > 0 {
				inI[v] = true
				members = append(members, int32(v))
			}
		}
		st.Begin(members, func(int32) int32 { return 1 })
		if len(st.NegativeTentativeEdges()) > 0 {
			return g, st, inI, phi
		}
		st.Rollback()
	}
	t.Fatal("no instance with a violating move")
	return nil, nil, nil, 0
}

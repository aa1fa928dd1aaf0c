package solverstate_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/guard"
	"serretime/internal/solverstate"
	"serretime/internal/telemetry"
)

// randomProblem builds a random synchronous graph (same shape as the core
// package's property-test instances: layered DAG plus feedback registers,
// no dangling cones) with random integer edge observabilities and label
// parameters wide enough that windows exist.
func randomProblem(rng *rand.Rand, n int) (*graph.Graph, []int64, elw.Params) {
	b := graph.NewBuilder()
	vs := make([]graph.VertexID, n)
	for i := 0; i < n; i++ {
		vs[i] = b.AddVertex("v", 1+float64(rng.Intn(4)))
	}
	b.AddEdge(graph.Host, vs[0], int32(rng.Intn(2)))
	for i := 1; i < n; i++ {
		b.AddEdge(vs[rng.Intn(i)], vs[i], int32(rng.Intn(3)))
		if rng.Intn(2) == 0 {
			b.AddEdge(vs[rng.Intn(i)], vs[i], int32(rng.Intn(2)))
		}
		if rng.Intn(4) == 0 {
			b.AddEdge(vs[i], vs[rng.Intn(i+1)], 1+int32(rng.Intn(2)))
		}
	}
	b.AddEdge(vs[n-1], graph.Host, int32(rng.Intn(2)))
	b.AddEdge(vs[rng.Intn(n)], graph.Host, 0)
	g := b.Build()
	// No dangling cones: every gate must reach a latch point.
	bb := graph.NewBuilder()
	for v := 1; v < g.NumVertices(); v++ {
		bb.AddVertex(g.Name(graph.VertexID(v)), g.Delay(graph.VertexID(v)))
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		bb.AddEdge(ed.From, ed.To, ed.W)
	}
	for v := 1; v < g.NumVertices(); v++ {
		if len(g.Out(graph.VertexID(v))) == 0 {
			bb.AddEdge(graph.VertexID(v), graph.Host, 0)
		}
	}
	g = bb.Build()
	obsInt := make([]int64, g.NumEdges())
	for e := range obsInt {
		obsInt[e] = int64(rng.Intn(1000))
	}
	_, crit, _ := g.ArrivalTimes(graph.NewRetiming(g))
	return g, obsInt, elw.Params{Phi: crit * (1 + rng.Float64()), Ts: 0, Th: 2}
}

// objectiveScan recomputes Σ obsInt·w_r from scratch.
func objectiveScan(g *graph.Graph, r graph.Retiming, obsInt []int64) int64 {
	var obj int64
	for e := 0; e < g.NumEdges(); e++ {
		obj += obsInt[e] * int64(g.WR(graph.EdgeID(e), r))
	}
	return obj
}

// randomMove picks a random subset of gates to move forward by one
// register (the shape of every Algorithm 1 tentative move).
func randomMove(rng *rand.Rand, g *graph.Graph) []int32 {
	var members []int32
	for v := 1; v < g.NumVertices(); v++ {
		if rng.Intn(3) == 0 {
			members = append(members, int32(v))
		}
	}
	if len(members) == 0 {
		members = append(members, int32(1+rng.Intn(g.NumVertices()-1)))
	}
	return members
}

func one(int32) int32 { return 1 }

// moveSet returns the committed retiming with members moved forward by one.
func moveSet(committed graph.Retiming, members []int32) graph.Retiming {
	tent := committed.Clone()
	for _, v := range members {
		tent[v]--
	}
	return tent
}

// sameTentative compares a retargeted state with ref, which reached the
// same tentative set by Rollback and Begin: objective, edge weights,
// negative edges and labels must all be equal.
func sameTentative(t *testing.T, st, ref *solverstate.State) {
	t.Helper()
	if got, want := st.Objective(), ref.Objective(); got != want {
		t.Fatalf("retarget objective %d, rollback+begin %d", got, want)
	}
	if !slices.Equal(st.EdgeWeights(), ref.EdgeWeights()) {
		t.Fatalf("retarget weights %v, rollback+begin %v", st.EdgeWeights(), ref.EdgeWeights())
	}
	if got, want := st.NegativeTentativeEdges(), ref.NegativeTentativeEdges(); !slices.Equal(got, want) {
		t.Fatalf("retarget negatives %v, rollback+begin %v", got, want)
	}
	got, err := st.Labels()
	if err != nil {
		t.Fatalf("retarget labels: %v", err)
	}
	want, err := ref.Labels()
	if err != nil {
		t.Fatalf("rollback+begin labels: %v", err)
	}
	if v, diff := got.FirstDiff(want); diff {
		t.Fatalf("retarget labels diverge at v%d", v)
	}
}

// retargetChain moves the open transaction of st through a random number
// of fresh random sets, mirroring each on ref by Rollback and Begin, and
// returns the last set.
func retargetChain(t *testing.T, rng *rand.Rand, g *graph.Graph, st, ref *solverstate.State, members []int32) []int32 {
	t.Helper()
	for rng.Intn(2) == 0 {
		members = randomMove(rng, g)
		st.Retarget(members, one)
		ref.Rollback()
		ref.Begin(members, one)
		sameTentative(t, st, ref)
	}
	return members
}

// TestStateMatchesOracles drives random move sequences and checks, after
// every Begin, that the incremental objective, negative-edge list and L/R
// labels all agree with from-scratch recomputations, and that rollbacks
// restore the committed state bit-exactly. Some transactions are
// retargeted to fresh sets before they close; after every retarget the
// state must equal a twin that reached the same set by Rollback and Begin.
func TestStateMatchesOracles(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, obsInt, params := randomProblem(rng, 4+rng.Intn(20))
		r0 := graph.NewRetiming(g)
		seedLab, err := elw.ComputeLabels(g, r0, params)
		if err != nil {
			t.Fatal(err)
		}
		cfg := solverstate.Config{Params: params, ObsInt: obsInt, SeedLabels: seedLab}
		st, err := solverstate.New(g, r0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := solverstate.New(g, r0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		shadow := r0.Clone() // committed retiming maintained independently
		for step := 0; step < 40; step++ {
			members := randomMove(rng, g)
			st.Begin(members, one)
			ref.Begin(members, one)
			members = retargetChain(t, rng, g, st, ref, members)
			tent := moveSet(shadow, members)
			if got, want := st.Objective(), objectiveScan(g, tent, obsInt); got != want {
				t.Fatalf("seed %d step %d: tentative objective %d, scan %d", seed, step, got, want)
			}
			// Negative-edge list vs a full scan in EdgeID order.
			var wantNeg []graph.EdgeID
			for e := 0; e < g.NumEdges(); e++ {
				if g.WR(graph.EdgeID(e), tent) < 0 {
					wantNeg = append(wantNeg, graph.EdgeID(e))
				}
			}
			gotNeg := st.NegativeTentativeEdges()
			if len(gotNeg) != len(wantNeg) {
				t.Fatalf("seed %d step %d: negatives %v, scan %v", seed, step, gotNeg, wantNeg)
			}
			for i := range gotNeg {
				if gotNeg[i] != wantNeg[i] {
					t.Fatalf("seed %d step %d: negatives %v, scan %v", seed, step, gotNeg, wantNeg)
				}
			}
			legal := len(gotNeg) == 0
			if legal || rng.Intn(2) == 0 {
				// The P1'/P2' path: labels of the tentative state.
				lab, err := st.Labels()
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				want, err := elw.ComputeLabels(g, tent, params)
				if err != nil {
					t.Fatalf("seed %d step %d: oracle: %v", seed, step, err)
				}
				if v, diff := lab.FirstDiff(want); diff {
					t.Fatalf("seed %d step %d: labels diverge at v%d", seed, step, v)
				}
			}
			// Only commit legal states (New's contract; the solver checks
			// P0 before committing for the same reason).
			if legal && rng.Intn(2) == 0 {
				st.Commit()
				ref.Commit()
				shadow = tent
			} else {
				st.Rollback()
				ref.Rollback()
			}
			if got, want := st.CommittedObjective(), objectiveScan(g, shadow, obsInt); got != want {
				t.Fatalf("seed %d step %d: committed objective %d, scan %d", seed, step, got, want)
			}
			for v := range shadow {
				if st.R()[v] != shadow[v] {
					t.Fatalf("seed %d step %d: r[%d] = %d, want %d", seed, step, v, st.R()[v], shadow[v])
				}
			}
			for e := 0; e < g.NumEdges(); e++ {
				if st.WR(graph.EdgeID(e)) != g.WR(graph.EdgeID(e), shadow) {
					t.Fatalf("seed %d step %d: wr[%d] stale after close", seed, step, e)
				}
			}
			// Closed-state labels must equal the committed oracle.
			lab, err := st.Labels()
			if err != nil {
				t.Fatal(err)
			}
			want, err := elw.ComputeLabels(g, shadow, params)
			if err != nil {
				t.Fatal(err)
			}
			if v, diff := lab.FirstDiff(want); diff {
				t.Fatalf("seed %d step %d: committed labels diverge at v%d", seed, step, v)
			}
		}
	}
}

// TestCrossCheckAgreesOnRandomMoves runs the same random walks with the
// oracle cross-check armed: any divergence of the patch machinery turns
// into a MismatchError, so a clean pass is the satellite's shadow-oracle
// property.
func TestCrossCheckAgreesOnRandomMoves(t *testing.T) {
	tr := telemetry.NewTrace(telemetry.TraceID{})
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, obsInt, params := randomProblem(rng, 4+rng.Intn(24))
		r0 := graph.NewRetiming(g)
		seedLab, err := elw.ComputeLabels(g, r0, params)
		if err != nil {
			t.Fatal(err)
		}
		st, err := solverstate.New(g, r0, solverstate.Config{
			Params: params, ObsInt: obsInt, SeedLabels: seedLab,
			CheckLabels: true, Recorder: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 25; step++ {
			st.Begin(randomMove(rng, g), one)
			if _, err := st.Labels(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if len(st.NegativeTentativeEdges()) == 0 && rng.Intn(2) == 0 {
				st.Commit()
			} else {
				st.Rollback()
			}
		}
	}
	if tr.Doc("", "", "", "", false).Stats().Counter(telemetry.CounterLabelPatches) == 0 {
		t.Fatal("random walks never exercised the patch path")
	}
}

// TestRollbackRestoresLabelsBitwise snapshots the committed labels, runs a
// patched transaction, rolls back, and compares every field.
func TestRollbackRestoresLabelsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, obsInt, params := randomProblem(rng, 16)
	r0 := graph.NewRetiming(g)
	seedLab, _ := elw.ComputeLabels(g, r0, params)
	st, err := solverstate.New(g, r0, solverstate.Config{Params: params, ObsInt: obsInt, SeedLabels: seedLab})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 20; step++ {
		before, err := st.Labels()
		if err != nil {
			t.Fatal(err)
		}
		snap := before.Clone()
		st.Begin(randomMove(rng, g), one)
		if _, err := st.Labels(); err != nil {
			t.Fatal(err)
		}
		st.Rollback()
		after, err := st.Labels()
		if err != nil {
			t.Fatal(err)
		}
		if v, diff := after.FirstDiff(snap); diff {
			t.Fatalf("step %d: rollback lost labels at v%d", step, v)
		}
	}
}

// TestFallbackPaths checks the three full-recompute triggers: a forced
// Config.FullRecompute, a dirty region above the threshold, and no seed
// labels to patch from.
func TestFallbackPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, obsInt, params := randomProblem(rng, 20)
	r0 := graph.NewRetiming(g)
	seedLab, _ := elw.ComputeLabels(g, r0, params)

	t.Run("forced", func(t *testing.T) {
		tr := telemetry.NewTrace(telemetry.TraceID{})
		st, err := solverstate.New(g, r0, solverstate.Config{
			Params: params, ObsInt: obsInt, SeedLabels: seedLab,
			FullRecompute: true, Recorder: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		st.Begin([]int32{1}, one)
		if _, err := st.Labels(); err != nil {
			t.Fatal(err)
		}
		st.Rollback()
		s := tr.Doc("", "", "", "", false).Stats()
		if s.Counter(telemetry.CounterLabelPatches) != 0 || s.Counter(telemetry.CounterLabelFallbacks) != 1 {
			t.Fatalf("patches=%d fallbacks=%d, want 0/1",
				s.Counter(telemetry.CounterLabelPatches), s.Counter(telemetry.CounterLabelFallbacks))
		}
	})

	t.Run("threshold", func(t *testing.T) {
		// An explicit threshold disables the small-circuit floor, so any
		// non-empty region exceeds a sub-one-vertex limit.
		tr := telemetry.NewTrace(telemetry.TraceID{})
		st, err := solverstate.New(g, r0, solverstate.Config{
			Params: params, ObsInt: obsInt, SeedLabels: seedLab,
			DirtyThreshold: 1e-9, Recorder: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		moved := false
		for v := 1; v < g.NumVertices() && !moved; v++ {
			st.Begin([]int32{int32(v)}, one)
			if len(st.NegativeTentativeEdges()) > 0 {
				st.Rollback()
				continue
			}
			if _, err := st.Labels(); err != nil {
				t.Fatal(err)
			}
			moved = true
			st.Rollback()
		}
		if !moved {
			t.Skip("no single legal move in this instance")
		}
		s := tr.Doc("", "", "", "", false).Stats()
		if s.Counter(telemetry.CounterLabelFallbacks) == 0 {
			t.Fatal("sub-vertex threshold did not trigger the fallback")
		}
		if s.Counter(telemetry.CounterLabelPatches) != 0 {
			t.Fatal("patched despite sub-vertex threshold")
		}
	})

	t.Run("no-seed", func(t *testing.T) {
		tr := telemetry.NewTrace(telemetry.TraceID{})
		st, err := solverstate.New(g, r0, solverstate.Config{
			Params: params, ObsInt: obsInt, Recorder: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		st.Begin([]int32{1}, one)
		lab, err := st.Labels()
		if err != nil {
			t.Fatal(err)
		}
		tent := r0.Clone()
		tent[1]--
		want, _ := elw.ComputeLabels(g, tent, params)
		if v, diff := lab.FirstDiff(want); diff {
			t.Fatalf("bootstrap labels diverge at v%d", v)
		}
		st.Rollback()
		if s := tr.Doc("", "", "", "", false).Stats(); s.Counter(telemetry.CounterLabelFulls) == 0 {
			t.Fatal("bootstrap did not run a full recompute")
		}
	})
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, obsInt, params := randomProblem(rng, 8)
	if _, err := solverstate.New(g, graph.NewRetiming(g), solverstate.Config{
		Params: params, ObsInt: obsInt[:1],
	}); err == nil {
		t.Fatal("short ObsInt accepted")
	}
	bad := graph.NewRetiming(g)
	bad[1] = -100 // drives some weight negative
	if _, err := solverstate.New(g, bad, solverstate.Config{
		Params: params, ObsInt: obsInt,
	}); err == nil {
		t.Fatal("illegal initial retiming accepted")
	}
}

func TestMismatchErrorUnwraps(t *testing.T) {
	err := error(&solverstate.MismatchError{Vertex: 3, Name: "g3"})
	if !errors.Is(err, solverstate.ErrLabelMismatch) {
		t.Error("does not unwrap to ErrLabelMismatch")
	}
	if !errors.Is(err, guard.ErrInternal) {
		t.Error("does not unwrap to guard.ErrInternal")
	}
	if err.Error() == "" {
		t.Error("empty message")
	}
}

// TestLabelsFailpoint arms the solverstate.Labels failpoint and checks the
// panic surfaces as guard.ErrInternal through the guard harness — the
// path the degradation chain relies on.
func TestLabelsFailpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, obsInt, params := randomProblem(rng, 8)
	st, err := solverstate.New(g, graph.NewRetiming(g), solverstate.Config{Params: params, ObsInt: obsInt})
	if err != nil {
		t.Fatal(err)
	}
	guard.ArmFailpoint("solverstate.Labels")
	defer guard.DisarmFailpoint("solverstate.Labels")
	_, err = guard.Do(context.Background(), "test", func(context.Context) (*elw.Labels, error) {
		return st.Labels()
	})
	if !errors.Is(err, guard.ErrInternal) {
		t.Fatalf("got %v, want guard.ErrInternal", err)
	}
}

// TestCommitDropsStaleLabels commits a weight-changing move without ever
// requesting labels; the cached pre-move labels must not survive.
func TestCommitDropsStaleLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, obsInt, params := randomProblem(rng, 12)
	r0 := graph.NewRetiming(g)
	seedLab, _ := elw.ComputeLabels(g, r0, params)
	st, err := solverstate.New(g, r0, solverstate.Config{Params: params, ObsInt: obsInt, SeedLabels: seedLab})
	if err != nil {
		t.Fatal(err)
	}
	shadow := r0.Clone()
	rng2 := rand.New(rand.NewSource(10))
	for step := 0; step < 30; step++ {
		members := randomMove(rng2, g)
		st.Begin(members, one) // P0-only path: no Labels call
		if step%2 == 1 {
			// A retargeted move commits the same way.
			members = randomMove(rng2, g)
			st.Retarget(members, one)
		}
		if len(st.NegativeTentativeEdges()) > 0 {
			st.Rollback()
			continue
		}
		st.Commit()
		for _, v := range members {
			shadow[v]--
		}
		lab, err := st.Labels()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := elw.ComputeLabels(g, shadow, params)
		if v, diff := lab.FirstDiff(want); diff {
			t.Fatalf("step %d: stale labels survived a blind commit (v%d)", step, v)
		}
	}
}

// TestTxnStateMachine checks the protocol panics.
func TestTxnStateMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g, obsInt, params := randomProblem(rng, 6)
	st, err := solverstate.New(g, graph.NewRetiming(g), solverstate.Config{Params: params, ObsInt: obsInt})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Commit-closed", st.Commit)
	mustPanic("Rollback-closed", st.Rollback)
	mustPanic("Retarget-closed", func() { st.Retarget([]int32{1}, one) })
	st.Begin([]int32{1}, one)
	mustPanic("Begin-open", func() { st.Begin([]int32{1}, one) })
	mustPanic("R-open", func() { st.R() })
	st.Rollback()
}

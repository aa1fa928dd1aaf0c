package core

import (
	"math/rand"
	"slices"
	"testing"

	"serretime/internal/maxflow"
	"serretime/internal/telemetry"
)

// TestForestEngineNearExact quantifies the paper's weighted-regular-forest
// engine against the exact LP optimum: the regularity rules reconstructed
// from the paper's sketch should match on the overwhelming majority of
// random instances (the closure engine matches on all, see
// TestPropertyMinObsMatchesExact).
func TestForestEngineNearExact(t *testing.T) {
	match, total := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, gains, obsInt, phi := randomInstance(rng, 3+rng.Intn(18))
		if g.Check() != nil {
			continue
		}
		fe, err := Minimize(g, gains, obsInt, Options{Phi: phi, Ts: 0, Th: 2, Engine: EngineForest})
		if err != nil {
			t.Fatalf("seed %d: forest engine error: %v", seed, err)
		}
		ex, err := MinObsExact(g, gains, obsInt, phi, 0, true, Options{})
		if err != nil {
			continue
		}
		total++
		if fe.Objective == ex.Objective {
			match++
		} else if fe.Objective < ex.Objective {
			t.Fatalf("seed %d: forest beat the exact optimum (%d < %d)", seed, fe.Objective, ex.Objective)
		}
	}
	if total == 0 {
		t.Fatal("no instances")
	}
	if rate := float64(match) / float64(total); rate < 0.95 {
		t.Fatalf("forest engine matched exact on only %d/%d instances", match, total)
	}
}

// TestEnginesAgreeOnMinObsWin cross-checks the two engines on the full
// MinObsWin problem: both must produce legal results satisfying the
// constraints, with the closure engine at least as good.
func TestEnginesAgreeOnMinObsWin(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, gains, obsInt, phi := randomInstance(rng, 3+rng.Intn(15))
		if g.Check() != nil {
			continue
		}
		opt := Options{Phi: phi, Ts: 0, Th: 2, Rmin: g.MinDelay(), ELWConstraints: true}
		cl, err := Minimize(g, gains, obsInt, opt)
		if err != nil {
			t.Fatalf("seed %d: closure: %v", seed, err)
		}
		opt.Engine = EngineForest
		fo, err := Minimize(g, gains, obsInt, opt)
		if err != nil {
			t.Fatalf("seed %d: forest: %v", seed, err)
		}
		if err := g.CheckLegal(cl.R); err != nil {
			t.Fatalf("seed %d: closure illegal: %v", seed, err)
		}
		if err := g.CheckLegal(fo.R); err != nil {
			t.Fatalf("seed %d: forest illegal: %v", seed, err)
		}
		if cl.Objective > fo.Objective {
			t.Errorf("seed %d: closure (%d) worse than forest (%d)", seed, cl.Objective, fo.Objective)
		}
	}
}

// TestBatchMatchesSingle verifies that batching violation repairs reaches
// the same objective as the verbatim one-repair-per-iteration Algorithm 1.
func TestBatchMatchesSingle(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, gains, obsInt, phi := randomInstance(rng, 3+rng.Intn(15))
		if g.Check() != nil {
			continue
		}
		opt := Options{Phi: phi, Ts: 0, Th: 2, Rmin: g.MinDelay(), ELWConstraints: true}
		batch, err := Minimize(g, gains, obsInt, opt)
		if err != nil {
			t.Fatalf("seed %d: batch: %v", seed, err)
		}
		opt.SingleViolation = true
		single, err := Minimize(g, gains, obsInt, opt)
		if err != nil {
			t.Fatalf("seed %d: single: %v", seed, err)
		}
		if batch.Objective != single.Objective {
			t.Errorf("seed %d: batch %d != single %d", seed, batch.Objective, single.Objective)
		}
		if single.Steps < batch.Steps {
			t.Errorf("seed %d: single took fewer steps (%d < %d)", seed, single.Steps, batch.Steps)
		}
	}
}

// TestCheckOrderInvariance: the violation check order changes the
// discovery path but not the fixpoint objective.
func TestCheckOrderInvariance(t *testing.T) {
	orders := [][]Kind{
		{KindP0, KindP2, KindP1},
		{KindP2, KindP0, KindP1}, // the paper's published order
		{KindP1, KindP2, KindP0},
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, gains, obsInt, phi := randomInstance(rng, 3+rng.Intn(15))
		if g.Check() != nil {
			continue
		}
		var objs []int64
		for _, order := range orders {
			res, err := Minimize(g, gains, obsInt, Options{
				Phi: phi, Ts: 0, Th: 2, Rmin: g.MinDelay(),
				ELWConstraints: true, CheckOrder: order,
			})
			if err != nil {
				t.Fatalf("seed %d order %v: %v", seed, order, err)
			}
			objs = append(objs, res.Objective)
		}
		for i := 1; i < len(objs); i++ {
			if objs[i] != objs[0] {
				t.Errorf("seed %d: order %v objective %d != %d", seed, orders[i], objs[i], objs[0])
			}
		}
	}
}

// oracleClosure is the closure engine's exact cut computed from scratch:
// local ids in arc order, one maxflow.MaxClosure over the touched
// subgraph, untouched positive vertices in ascending order first.
func oracleClosure(e *closureEngine) ([]int32, []bool) {
	localID := make(map[int32]int32)
	var local []int32
	idOf := func(v int32) int32 {
		if id, ok := localID[v]; ok {
			return id
		}
		localID[v] = int32(len(local))
		local = append(local, v)
		return localID[v]
	}
	sub := make([][2]int32, len(e.arcs))
	for i, a := range e.arcs {
		sub[i] = [2]int32{idOf(a[0]), idOf(a[1])}
	}
	weights := make([]int64, len(local))
	frozen := make([]bool, len(local))
	for id, v := range local {
		weights[id] = e.gains[v] * int64(e.w[v])
		frozen[id] = e.frozen[v]
	}
	sel, subTotal := maxflow.MaxClosure(len(local), weights, frozen, sub)
	mask := make([]bool, e.n)
	var members []int32
	var total int64
	for v := int32(0); v < int32(e.n); v++ {
		if _, ok := localID[v]; ok {
			continue
		}
		if wt := e.gains[v] * int64(e.w[v]); !e.frozen[v] && wt > 0 {
			mask[v] = true
			members = append(members, v)
			total += wt
		}
	}
	if subTotal > 0 {
		for id, v := range local {
			if sel[id] {
				mask[v] = true
				members = append(members, v)
			}
		}
		total += subTotal
	}
	if total <= 0 || len(members) == 0 {
		return nil, make([]bool, e.n)
	}
	return members, mask
}

// TestClosureEngineMatchesFromScratch drives random constraint, weight
// and freeze sequences through the closure engine, whose flow network
// persists across cuts, and checks every exact cut against a from-scratch
// max-closure over the same arcs: same members in the same order, same
// mask. Weight decreases past the flow on a terminal edge and freezes of
// touched vertices force the rebuild path, which must run too.
func TestClosureEngineMatchesFromScratch(t *testing.T) {
	tr := telemetry.NewTrace(telemetry.TraceID{})
	cuts := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		gains := make([]int64, n)
		for v := 1; v < n; v++ {
			gains[v] = int64(rng.Intn(21) - 10)
		}
		e := newClosureEngine(n, gains, tr)
		for round := 0; round < 3; round++ {
			if round > 0 {
				e.reset()
			}
			e.Freeze(0)
			for step := 0; step < 60; step++ {
				v := int32(1 + rng.Intn(n-1))
				switch r := rng.Intn(20); {
				case r < 10:
					q := int32(rng.Intn(n))
					if q != v {
						if err := e.AddConstraint(v, q); err != nil {
							t.Fatal(err)
						}
					}
				case r < 16:
					if err := e.SetWeight(v, 1+int32(rng.Intn(6))); err != nil {
						t.Fatal(err)
					}
				case r < 17:
					e.Freeze(v)
				case r < 18:
					e.PositiveSetFast()
				default:
					wantM, wantMask := oracleClosure(e)
					gotM, gotMask := e.PositiveSet()
					cuts++
					if !slices.Equal(gotM, wantM) || !slices.Equal(gotMask, wantMask) {
						t.Fatalf("seed %d round %d step %d: members %v, want %v", seed, round, step, gotM, wantM)
					}
				}
			}
		}
	}
	rebuilds := tr.Doc("", "", "", "", false).Stats().Counter(telemetry.CounterClosureRebuilds)
	t.Logf("%d exact cuts, %d rebuilds", cuts, rebuilds)
	if rebuilds == 0 || rebuilds*2 > int64(cuts) {
		t.Fatalf("%d rebuilds over %d cuts: want both the rebuild and the incremental path exercised", rebuilds, cuts)
	}
}

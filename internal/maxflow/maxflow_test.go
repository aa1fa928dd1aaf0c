package maxflow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimpleFlow(t *testing.T) {
	// s=0, t=3: two disjoint paths of caps 3 and 2.
	g := New(4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 3, 3)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 3, 2)
	if f := g.MaxFlow(0, 3); f != 5 {
		t.Fatalf("flow = %d, want 5", f)
	}
}

func TestBottleneck(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 4)
	if f := g.MaxFlow(0, 2); f != 4 {
		t.Fatalf("flow = %d", f)
	}
	side := g.MinCutSide(0)
	if !side[0] || !side[1] || side[2] {
		t.Fatalf("cut side = %v", side)
	}
}

func TestAugmentingThroughResidual(t *testing.T) {
	// The classic diamond where the naive greedy path must be undone.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	if f := g.MaxFlow(0, 3); f != 2 {
		t.Fatalf("flow = %d, want 2", f)
	}
}

func TestMaxClosureSimple(t *testing.T) {
	// 0 (+5) forces 1 (−3): worth it. 2 (+1) forces 3 (−9): not.
	sel, total := MaxClosure(4, []int64{5, -3, 1, -9}, make([]bool, 4),
		[][2]int32{{0, 1}, {2, 3}})
	if total != 2 {
		t.Fatalf("total = %d", total)
	}
	if !sel[0] || !sel[1] || sel[2] || sel[3] {
		t.Fatalf("sel = %v", sel)
	}
}

func TestMaxClosureFrozen(t *testing.T) {
	frozen := make([]bool, 2)
	frozen[1] = true
	sel, total := MaxClosure(2, []int64{5, 0}, frozen, [][2]int32{{0, 1}})
	if total != 0 || sel[0] || sel[1] {
		t.Fatalf("sel=%v total=%d", sel, total)
	}
}

func TestMaxClosureChain(t *testing.T) {
	// 0(+10) -> 1(-2) -> 2(-3): closure {0,1,2} = +5.
	sel, total := MaxClosure(3, []int64{10, -2, -3}, make([]bool, 3),
		[][2]int32{{0, 1}, {1, 2}})
	if total != 5 || !sel[0] || !sel[1] || !sel[2] {
		t.Fatalf("sel=%v total=%d", sel, total)
	}
}

func TestMaxClosureEmpty(t *testing.T) {
	sel, total := MaxClosure(2, []int64{-1, -2}, make([]bool, 2), nil)
	if total != 0 || sel[0] || sel[1] {
		t.Fatalf("sel=%v total=%d", sel, total)
	}
}

// bruteClosure enumerates all closed sets.
func bruteClosure(n int, weights []int64, frozen []bool, arcs [][2]int32) int64 {
	best := int64(0)
	for m := 0; m < 1<<n; m++ {
		ok := true
		for _, a := range arcs {
			if m&(1<<a[0]) != 0 && m&(1<<a[1]) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var w int64
		for v := 0; v < n; v++ {
			if m&(1<<v) != 0 {
				if frozen[v] {
					ok = false
					break
				}
				w += weights[v]
			}
		}
		if ok && w > best {
			best = w
		}
	}
	return best
}

func TestPropertyClosureMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = int64(rng.Intn(21) - 10)
		}
		frozen := make([]bool, n)
		if rng.Intn(2) == 0 {
			frozen[rng.Intn(n)] = true
		}
		var arcs [][2]int32
		for k := 0; k < rng.Intn(2*n); k++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				arcs = append(arcs, [2]int32{u, v})
			}
		}
		want := bruteClosure(n, weights, frozen, arcs)
		sel, total := MaxClosure(n, weights, frozen, arcs)
		if total != want {
			return false
		}
		// Selection must be a closed set of the claimed weight.
		var w int64
		for v := 0; v < n; v++ {
			if sel[v] {
				if frozen[v] {
					return false
				}
				w += weights[v]
			}
		}
		for _, a := range arcs {
			if sel[a[0]] && !sel[a[1]] {
				return false
			}
		}
		return w == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalMatchesFresh grows a network between MaxFlow calls —
// new nodes, new edges, capacity added to or taken (within the residual)
// from existing edges — and checks that the summed augmentations equal
// the maximum flow of a fresh network with the final capacities, with
// the same minimum-cut side.
func TestIncrementalMatchesFresh(t *testing.T) {
	type arc struct {
		from, to int32
		cap      int64
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		g := New(n)
		nodes := n
		var arcs []arc
		var ids []int32
		var flow int64
		addArc := func() {
			u, v := int32(rng.Intn(nodes)), int32(rng.Intn(nodes))
			if u == v {
				return
			}
			c := int64(rng.Intn(10))
			if rng.Intn(5) == 0 {
				c = Inf
			}
			arcs = append(arcs, arc{u, v, c})
			ids = append(ids, g.AddEdge(u, v, c))
		}
		for round := 0; round < 6; round++ {
			for k := rng.Intn(3); k > 0; k-- {
				if id := g.AddNode(); int(id) != nodes {
					t.Fatalf("AddNode = %d, want %d", id, nodes)
				}
				nodes++
			}
			for k := rng.Intn(2 * nodes); k > 0; k-- {
				addArc()
			}
			for k := 0; k < len(arcs) && k < 4; k++ {
				i := rng.Intn(len(arcs))
				if arcs[i].cap == Inf {
					continue
				}
				d := int64(rng.Intn(7) - 3)
				if d < 0 && -d > g.Residual(ids[i]) {
					d = -g.Residual(ids[i])
				}
				g.Grow(ids[i], d)
				arcs[i].cap += d
			}
			flow += g.MaxFlow(0, 1)

			fresh := New(nodes)
			for _, a := range arcs {
				fresh.AddEdge(a.from, a.to, a.cap)
			}
			if want := fresh.MaxFlow(0, 1); flow != want {
				t.Fatalf("seed %d round %d: incremental flow %d, fresh %d", seed, round, flow, want)
			}
			got, want := g.MinCutSide(0), fresh.MinCutSide(0)
			for v := range want {
				if got[v] != want[v] || g.SourceSide(int32(v)) != want[v] {
					t.Fatalf("seed %d round %d: cut side differs at node %d", seed, round, v)
				}
			}
		}
	}
}

func TestResetReusesNetwork(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 2, 5)
	g.AddEdge(2, 1, 3)
	if f := g.MaxFlow(0, 1); f != 3 {
		t.Fatalf("flow = %d, want 3", f)
	}
	g.Reset(2)
	v := g.AddNode()
	if v != 2 {
		t.Fatalf("AddNode after Reset(2) = %d, want 2", v)
	}
	g.AddEdge(0, v, 4)
	g.AddEdge(v, 1, 9)
	if f := g.MaxFlow(0, 1); f != 4 {
		t.Fatalf("flow after Reset = %d, want 4", f)
	}
}

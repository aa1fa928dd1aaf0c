package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomSyncGraph builds a layered DAG with random delays and register
// counts plus registered feedback edges, so every cycle holds a register.
func randomSyncGraph(rng *rand.Rand, n int) *Graph {
	b := NewBuilder()
	vs := make([]VertexID, n)
	for i := range vs {
		vs[i] = b.AddVertex("v", float64(1+rng.Intn(8))/2)
	}
	b.AddEdge(Host, vs[0], int32(rng.Intn(2)))
	for i := 1; i < n; i++ {
		b.AddEdge(vs[rng.Intn(i)], vs[i], int32(rng.Intn(3)))
		if rng.Intn(2) == 0 {
			b.AddEdge(vs[rng.Intn(i)], vs[i], int32(rng.Intn(2)))
		}
		if rng.Intn(4) == 0 {
			b.AddEdge(vs[i], vs[rng.Intn(i+1)], 1+int32(rng.Intn(2)))
		}
		if rng.Intn(5) == 0 {
			b.AddEdge(vs[i], Host, int32(rng.Intn(2)))
		}
	}
	return b.Build()
}

// zeroWeightTopo is the stand-alone zero-weight topological sort that
// Graph.ZeroWeightTopo was before the forward sweep became the only one,
// kept verbatim as the reference order of the sweep tests.
func zeroWeightTopo(g *Graph, r Retiming) ([]VertexID, error) {
	n := g.NumVertices()
	indeg := make([]int32, n)
	for i := range g.eW {
		if g.eFrom[i] == Host || g.eTo[i] == Host {
			continue
		}
		if g.WR(EdgeID(i), r) == 0 {
			indeg[g.eTo[i]]++
		}
	}
	queue := make([]VertexID, 0, n)
	for v := 1; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	order := make([]VertexID, 0, n-1)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, eid := range g.Out(v) {
			to := g.eTo[eid]
			if to == Host || g.WR(eid, r) != 0 {
				continue
			}
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(order) != n-1 {
		return nil, fmt.Errorf("graph: zero-weight cycle under retiming (%d of %d vertices ordered)", len(order), n-1)
	}
	return order, nil
}

// topoSweeps is the two-pass reference: an explicit zeroWeightTopo order,
// then arrivals in that order and reverse arrivals in its reverse.
func topoSweeps(g *Graph, r Retiming) (arr, rarr []float64, crit float64, err error) {
	order, err := zeroWeightTopo(g, r)
	if err != nil {
		return nil, nil, 0, err
	}
	arr = make([]float64, g.NumVertices())
	for _, v := range order {
		a := 0.0
		for _, eid := range g.In(v) {
			if from := g.EdgeFrom(eid); from != Host && g.WR(eid, r) == 0 && arr[from] > a {
				a = arr[from]
			}
		}
		arr[v] = a + g.Delay(v)
		if arr[v] > crit {
			crit = arr[v]
		}
	}
	rarr = make([]float64, g.NumVertices())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		a := 0.0
		for _, eid := range g.Out(v) {
			if to := g.EdgeTo(eid); to != Host && g.WR(eid, r) == 0 && rarr[to] > a {
				a = rarr[to]
			}
		}
		rarr[v] = a + g.Delay(v)
	}
	return arr, rarr, crit, nil
}

// TestSweepMatchesTopoOrder checks the single-pass sweeps against the
// two-pass reference bit for bit, over random graphs and random (possibly
// illegal) retimings, reusing one Sweep per graph.
func TestSweepMatchesTopoOrder(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomSyncGraph(rng, 2+rng.Intn(40))
		sw := g.NewSweep()
		for trial := 0; trial < 8; trial++ {
			r := NewRetiming(g)
			if trial > 0 {
				for v := 1; v < len(r); v++ {
					r[v] = int32(rng.Intn(3)) - 1
				}
			}
			wantArr, wantRarr, wantCrit, err := topoSweeps(g, r)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			arr, crit, err := sw.Arrivals(r)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			if crit != wantCrit {
				t.Fatalf("seed %d trial %d: crit %g, want %g", seed, trial, crit, wantCrit)
			}
			for v := range wantArr {
				if arr[v] != wantArr[v] {
					t.Fatalf("seed %d trial %d: arr[%d] = %g, want %g", seed, trial, v, arr[v], wantArr[v])
				}
			}
			rarr, err := sw.ReverseArrivals(r)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			for v := range wantRarr {
				if rarr[v] != wantRarr[v] {
					t.Fatalf("seed %d trial %d: rarr[%d] = %g, want %g", seed, trial, v, rarr[v], wantRarr[v])
				}
			}
		}
		if got, want := sw.Sweeps(), 16; got != want {
			t.Fatalf("seed %d: %d sweeps counted, want %d", seed, got, want)
		}
	}
}

// TestSweepOrderMatchesZeroWeightTopo pins the forward sweep's recorded
// order to the stand-alone sort it replaced, vertex for vertex, over
// random graphs and random (possibly illegal) retimings. Label consumers
// depend on the exact order where a negative edge leaves a dependency
// unordered, so equal sets are not enough. Reverse sweeps between forward
// ones must not disturb the recorded order.
func TestSweepOrderMatchesZeroWeightTopo(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomSyncGraph(rng, 2+rng.Intn(40))
		sw := g.NewSweep()
		for trial := 0; trial < 8; trial++ {
			r := NewRetiming(g)
			if trial > 0 {
				for v := 1; v < len(r); v++ {
					r[v] = int32(rng.Intn(3)) - 1
				}
			}
			want, err := zeroWeightTopo(g, r)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			got, err := sw.Topo(r)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d trial %d: Topo order %v, want %v", seed, trial, got, want)
			}
			if _, err := sw.ReverseArrivals(r); err != nil {
				t.Fatal(err)
			}
			if _, _, err := sw.Arrivals(r); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sw.Order(), want) {
				t.Fatalf("seed %d trial %d: Arrivals order %v, want %v", seed, trial, sw.Order(), want)
			}
		}
	}
}

func TestSweepDetectsZeroWeightCycle(t *testing.T) {
	b := NewBuilder()
	a := b.AddVertex("a", 1)
	c := b.AddVertex("c", 1)
	b.AddEdge(a, c, 0)
	b.AddEdge(c, a, 0)
	g := b.Build()
	sw := g.NewSweep()
	if _, _, err := sw.Arrivals(NewRetiming(g)); err == nil {
		t.Error("forward sweep missed the zero-weight cycle")
	}
	if _, err := sw.ReverseArrivals(NewRetiming(g)); err == nil {
		t.Error("reverse sweep missed the zero-weight cycle")
	}
	if _, err := sw.Topo(NewRetiming(g)); err == nil || len(sw.Order()) != 0 {
		t.Errorf("Topo on a zero-weight cycle: err %v, order %v", err, sw.Order())
	}
}

// TestAllocRegressionArrivalSweep pins repeated forward and reverse sweeps
// over one Sweep at zero allocations: the Section V min-period searches
// run dozens of them per initialization.
func TestAllocRegressionArrivalSweep(t *testing.T) {
	_, g := loadS27(t)
	sw := g.NewSweep()
	r := NewRetiming(g)
	run := func() {
		if _, _, err := sw.Arrivals(r); err != nil {
			t.Fatal(err)
		}
		if _, err := sw.ReverseArrivals(r); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(50, run); got != 0 {
		t.Errorf("arrival sweeps: %.0f allocs, want 0", got)
	}
}

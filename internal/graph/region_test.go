package graph

import (
	"math/rand"
	"testing"
)

// chainGraph builds host -w0-> v1 -w1-> v2 ... -> vn -wn-> host.
func chainGraph(ws ...int32) *Graph {
	b := NewBuilder()
	vs := make([]VertexID, len(ws)-1)
	for i := range vs {
		vs[i] = b.AddVertex("v", 1)
	}
	prev := Host
	for i, w := range ws {
		next := Host
		if i < len(vs) {
			next = vs[i]
		}
		b.AddEdge(prev, next, w)
		prev = next
	}
	return b.Build()
}

func TestRegionCollectClosure(t *testing.T) {
	// host -0-> 1 -0-> 2 -1-> 3 -0-> 4 -0-> host: seeding at 3 must pull
	// in nothing upstream of the register on (2,3); seeding at 2 pulls 1
	// (zero-weight predecessor) but not the host.
	g := chainGraph(0, 0, 1, 0, 0)
	wr := make([]int32, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		wr[e] = g.Edge(EdgeID(e)).W
	}
	rw := NewRegionWalker(g)
	if !rw.Collect(wr, []VertexID{3}, 0) {
		t.Fatal("unbounded Collect failed")
	}
	if len(rw.Region()) != 1 || !rw.InRegion(3) {
		t.Fatalf("region from 3 = %v, want [3]", rw.Region())
	}
	if !rw.Collect(wr, []VertexID{2}, 0) {
		t.Fatal("unbounded Collect failed")
	}
	if len(rw.Region()) != 2 || !rw.InRegion(2) || !rw.InRegion(1) {
		t.Fatalf("region from 2 = %v, want {1,2}", rw.Region())
	}
	if rw.InRegion(3) {
		t.Fatal("stale region survived Reset")
	}
}

func TestRegionCollectLimit(t *testing.T) {
	g := chainGraph(1, 0, 0, 0, 0)
	wr := make([]int32, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		wr[e] = g.Edge(EdgeID(e)).W
	}
	rw := NewRegionWalker(g)
	// Seeding the chain's tail reaches 4 vertices; a limit of 2 must fail
	// and the next call must see a clean walker.
	if rw.Collect(wr, []VertexID{4}, 2) {
		t.Fatal("limit 2 not enforced")
	}
	if !rw.Collect(wr, []VertexID{4}, 4) {
		t.Fatal("limit 4 rejected a 4-vertex region")
	}
	if len(rw.Region()) != 4 {
		t.Fatalf("region = %v, want 4 vertices", rw.Region())
	}
	// Host seeds are ignored.
	if !rw.Collect(wr, []VertexID{Host}, 1) || len(rw.Region()) != 0 {
		t.Fatal("host seed grew a region")
	}
}

// TestRegionFinishSizesTrippedRegion: Finish completes a walk that
// tripped its limit to the same closure an unbounded Collect finds, over
// random graphs, seeds and limits.
func TestRegionFinishSizesTrippedRegion(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomSyncGraph(rng, 3+rng.Intn(40))
		wr := make([]int32, g.NumEdges())
		for e := range wr {
			wr[e] = g.EdgeW(EdgeID(e))
		}
		seeds := []VertexID{VertexID(1 + rng.Intn(g.NumGates())), VertexID(1 + rng.Intn(g.NumGates()))}
		rw := NewRegionWalker(g)
		rw.Collect(wr, seeds, 0)
		want := len(rw.Region())
		for limit := 1; limit <= want+1; limit++ {
			ok := rw.Collect(wr, seeds, limit)
			if ok != (want <= limit) {
				t.Fatalf("seed %d limit %d: Collect %v for a %d-vertex closure", seed, limit, ok, want)
			}
			if got := rw.Finish(wr); got != want {
				t.Fatalf("seed %d limit %d: Finish %d, want %d", seed, limit, got, want)
			}
		}
	}
}

func TestTopoSuccFirstOrder(t *testing.T) {
	// Random DAG-with-registers instances: collect a full-circuit region
	// and check every in-region zero-weight edge u->v has v ordered
	// before u (labels flow backward: v must be final before u reads it).
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		b := NewBuilder()
		vs := make([]VertexID, n)
		for i := range vs {
			vs[i] = b.AddVertex("v", 1)
		}
		b.AddEdge(Host, vs[0], int32(rng.Intn(2)))
		for i := 1; i < n; i++ {
			b.AddEdge(vs[rng.Intn(i)], vs[i], int32(rng.Intn(2)))
			if rng.Intn(3) == 0 {
				b.AddEdge(vs[i], vs[rng.Intn(i+1)], 1)
			}
		}
		b.AddEdge(vs[n-1], Host, 0)
		g := b.Build()
		wr := make([]int32, g.NumEdges())
		for e := 0; e < g.NumEdges(); e++ {
			wr[e] = g.Edge(EdgeID(e)).W
		}
		seeds := make([]VertexID, 0, n)
		for v := 1; v < g.NumVertices(); v++ {
			seeds = append(seeds, VertexID(v))
		}
		rw := NewRegionWalker(g)
		if !rw.Collect(wr, seeds, 0) {
			t.Fatal("unbounded Collect failed")
		}
		order := rw.TopoSuccFirst(wr)
		if len(order) != len(rw.Region()) {
			t.Fatalf("seed %d: ordered %d of %d region vertices", seed, len(order), len(rw.Region()))
		}
		pos := make(map[VertexID]int, len(order))
		for i, v := range order {
			pos[v] = i
		}
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(EdgeID(e))
			if ed.From == Host || ed.To == Host || wr[e] != 0 {
				continue
			}
			if pos[ed.To] >= pos[ed.From] {
				t.Fatalf("seed %d: edge %d->%d ordered wrong (pos %d >= %d)",
					seed, ed.From, ed.To, pos[ed.To], pos[ed.From])
			}
		}
	}
}

func TestTopoSuccFirstPanicsOnCycle(t *testing.T) {
	// A zero-weight cycle cannot arise from any retiming of a legal graph;
	// feeding corrupted weights must panic rather than mislabel.
	b := NewBuilder()
	a := b.AddVertex("a", 1)
	c := b.AddVertex("c", 1)
	b.AddEdge(Host, a, 0)
	b.AddEdge(a, c, 0)
	b.AddEdge(c, a, 1)
	b.AddEdge(c, Host, 0)
	g := b.Build()
	wr := make([]int32, g.NumEdges())
	// Zero every weight: a <-> c becomes a zero-weight cycle.
	rw := NewRegionWalker(g)
	if !rw.Collect(wr, []VertexID{a, c}, 0) {
		t.Fatal("Collect failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-weight cycle did not panic")
		}
	}()
	rw.TopoSuccFirst(wr)
}

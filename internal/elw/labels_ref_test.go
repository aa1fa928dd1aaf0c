package elw

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"serretime/internal/graph"
)

// legacyZeroWeightTopo is Graph.ZeroWeightTopo, the stand-alone
// zero-weight topological sort the labels and windows used before the
// forward timing sweep became the only one, kept verbatim (through the
// graph's public accessors) as the reference order of the label and
// window differential tests.
func legacyZeroWeightTopo(g *graph.Graph, r graph.Retiming) ([]graph.VertexID, error) {
	n := g.NumVertices()
	indeg := make([]int32, n)
	for i := 0; i < g.NumEdges(); i++ {
		eid := graph.EdgeID(i)
		if g.EdgeFrom(eid) == graph.Host || g.EdgeTo(eid) == graph.Host {
			continue
		}
		if g.WR(eid, r) == 0 {
			indeg[g.EdgeTo(eid)]++
		}
	}
	queue := make([]graph.VertexID, 0, n)
	for v := 1; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, graph.VertexID(v))
		}
	}
	order := make([]graph.VertexID, 0, n-1)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, eid := range g.Out(v) {
			to := g.EdgeTo(eid)
			if to == graph.Host || g.WR(eid, r) != 0 {
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

// legacyComputeLabels is computeLabels as it was on the legacy order.
func legacyComputeLabels(g *graph.Graph, r graph.Retiming, p Params) (*Labels, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	order, err := legacyZeroWeightTopo(g, r)
	if err != nil {
		return nil, err
	}
	lab := NewLabels(g.NumVertices())
	wr := g.EdgeWeights(r)
	for i := len(order) - 1; i >= 0; i-- {
		lab.RelabelVertex(g, p, wr, order[i])
	}
	return lab, nil
}

// sameLabels compares two label vectors bit for bit, LT/RT included
// (math.Float64bits, so a -0/+0 or NaN payload difference also counts).
func sameLabels(a, b *Labels) (int, bool) {
	for v := range a.L {
		if math.Float64bits(a.L[v]) != math.Float64bits(b.L[v]) ||
			math.Float64bits(a.R[v]) != math.Float64bits(b.R[v]) ||
			a.HasWindow[v] != b.HasWindow[v] || a.LT[v] != b.LT[v] || a.RT[v] != b.RT[v] {
			return v, false
		}
	}
	return 0, len(a.L) == len(b.L)
}

// TestLabelsMatchLegacyTopo checks the sweep-ordered labels against the
// legacy-ordered ones bit for bit, over random graphs at random legal,
// illegal and negative retimings. With a negative edge the order decides
// which successor labels are final when a vertex reads them, so this also
// pins the sweep's order to the legacy one. Every entry point is
// covered: ComputeLabels (own sweep), ComputeLabelsInOrder on a sweep
// that has run other passes since, and the order a reverse sweep must
// not disturb.
func TestLabelsMatchLegacyTopo(t *testing.T) {
	negative := 0
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		if seed%2 == 0 {
			g = randomGraph(rng, 3+rng.Intn(60))
		} else {
			g = fracGraph(rng, 3+rng.Intn(120))
		}
		if g.Check() != nil {
			continue
		}
		sw := g.NewSweep()
		p := Params{Phi: 10 + float64(rng.Intn(60)), Ts: float64(rng.Intn(2)), Th: 2}
		for trial := 0; trial < 6; trial++ {
			r := graph.NewRetiming(g)
			if trial > 0 {
				span := int32(1 + trial/2)
				for v := 1; v < len(r); v++ {
					r[v] = int32(rng.Intn(int(2*span+1))) - span
				}
			}
			if g.CheckLegal(r) != nil {
				negative++
			}
			want, werr := legacyComputeLabels(g, r, p)
			got, err := ComputeLabels(g, r, p)
			if (err != nil) != (werr != nil) {
				t.Fatalf("seed %d trial %d: err %v, legacy %v", seed, trial, err, werr)
			}
			if err != nil {
				continue
			}
			if v, ok := sameLabels(got, want); !ok {
				t.Fatalf("seed %d trial %d: ComputeLabels differs from legacy at v%d", seed, trial, v)
			}
			if _, _, err := sw.Arrivals(r); err != nil {
				t.Fatal(err)
			}
			if _, err := sw.ReverseArrivals(r); err != nil {
				t.Fatal(err)
			}
			got, err = ComputeLabelsInOrder(g, r, sw.Order(), p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := sameLabels(got, want); !ok {
				t.Fatalf("seed %d trial %d: ComputeLabelsInOrder differs from legacy at v%d", seed, trial, v)
			}
		}
	}
	if negative == 0 {
		t.Fatal("corpus has no illegal retiming")
	}
}

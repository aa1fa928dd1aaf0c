package elw

import (
	"math/rand"
	"sort"
	"testing"

	"serretime/internal/graph"
	"serretime/internal/interval"
)

// legacyExact is the append + sort union Exact that the merge-based one
// replaced, kept as the reference of TestExactMatchesLegacy. It works on
// plain interval lists with the old normalize (sort.Slice, then a greedy
// left-to-right merge), materializes every shifted window, and coalesces
// on copies.
func legacyExact(g *graph.Graph, r graph.Retiming, p Params, maxIntervals int) ([][]interval.Interval, error) {
	order, err := g.ZeroWeightTopo(r)
	if err != nil {
		return nil, err
	}
	base := []interval.Interval{{L: p.Phi - p.Ts, R: p.Phi + p.Th}}
	out := make([][]interval.Interval, g.NumVertices())
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		var s []interval.Interval
		for _, eid := range g.Out(u) {
			to := g.EdgeTo(eid)
			if to == graph.Host || g.WR(eid, r) > 0 {
				s = legacyUnion(s, base)
				continue
			}
			s = legacyUnion(s, legacyShift(out[to], -g.Delay(to)))
		}
		if maxIntervals > 0 && len(s) > maxIntervals {
			s = legacyCoalesce(s, maxIntervals)
		}
		out[u] = s
	}
	return out, nil
}

func legacyUnion(s, o []interval.Interval) []interval.Interval {
	if len(o) == 0 {
		return s
	}
	s = append(s, o...)
	return legacyNormalize(s)
}

func legacyShift(s []interval.Interval, delta float64) []interval.Interval {
	out := make([]interval.Interval, len(s))
	for i, iv := range s {
		out[i] = iv.Shift(delta)
	}
	return out
}

func legacyNormalize(ivs []interval.Interval) []interval.Interval {
	if len(ivs) <= 1 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].L < ivs[j].L })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.L <= last.R {
			if iv.R > last.R {
				last.R = iv.R
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

func legacyCoalesce(s []interval.Interval, max int) []interval.Interval {
	ivs := append([]interval.Interval(nil), s...)
	for len(ivs) > max {
		best := 1
		bestGap := ivs[1].L - ivs[0].R
		for i := 2; i < len(ivs); i++ {
			if gap := ivs[i].L - ivs[i-1].R; gap < bestGap {
				bestGap = gap
				best = i
			}
		}
		ivs[best-1].R = ivs[best].R
		ivs = append(ivs[:best], ivs[best+1:]...)
	}
	return legacyNormalize(ivs)
}

// fracGraph is randomGraph with delays that are not exact binary
// fractions, so the shifted successor windows round and can touch or
// coincide after the shift.
func fracGraph(r *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder()
	vs := make([]graph.VertexID, n)
	for i := 0; i < n; i++ {
		vs[i] = b.AddVertex("v", 0.1*float64(1+r.Intn(40)))
	}
	b.AddEdge(graph.Host, vs[0], int32(r.Intn(2)))
	for i := 1; i < n; i++ {
		b.AddEdge(vs[r.Intn(i)], vs[i], int32(r.Intn(2)))
		for k := r.Intn(3); k > 0; k-- {
			b.AddEdge(vs[r.Intn(i)], vs[i], int32(r.Intn(3)))
		}
		if r.Intn(4) == 0 {
			b.AddEdge(vs[i], vs[r.Intn(i+1)], 1+int32(r.Intn(2)))
		}
	}
	b.AddEdge(vs[n-1], graph.Host, 0)
	for k := 0; k < 1+n/20; k++ {
		b.AddEdge(vs[r.Intn(n)], graph.Host, int32(r.Intn(2)))
	}
	return b.Build()
}

// TestExactMatchesLegacy: the merge-based Exact returns exactly the
// intervals of the append + sort implementation, with and without the
// coalescing cap, on integer- and fraction-delay random graphs.
func TestExactMatchesLegacy(t *testing.T) {
	var coalesced, multi int
	for seed := int64(1); seed <= 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		if seed%2 == 0 {
			g = randomGraph(r, 3+r.Intn(60))
		} else {
			g = fracGraph(r, 3+r.Intn(120))
		}
		if g.Check() != nil {
			continue
		}
		p := Params{Phi: 20 + float64(r.Intn(80)), Ts: float64(r.Intn(2)), Th: 2}
		rt := graph.NewRetiming(g)
		for tries := 0; tries < 5; tries++ {
			v := graph.VertexID(1 + r.Intn(g.NumGates()))
			rt[v]--
			if g.CheckLegal(rt) != nil {
				rt[v]++
			}
		}
		for _, maxIntervals := range []int{0, 1, 2, 3} {
			want, werr := legacyExact(g, rt, p, maxIntervals)
			got, err := Exact(g, rt, p, maxIntervals)
			if (err != nil) != (werr != nil) {
				t.Fatalf("seed %d: err %v, legacy %v", seed, err, werr)
			}
			if err != nil {
				continue
			}
			for v := range want {
				gv := got[v].Intervals()
				if len(gv) != len(want[v]) {
					t.Fatalf("seed %d max %d v%d: %v, legacy %v", seed, maxIntervals, v, got[v], want[v])
				}
				for k := range gv {
					if gv[k] != want[v][k] {
						t.Fatalf("seed %d max %d v%d: %v, legacy %v", seed, maxIntervals, v, got[v], want[v])
					}
				}
				if maxIntervals == 0 && len(gv) > 3 {
					coalesced++
				}
				if len(gv) > 1 {
					multi++
				}
			}
		}
	}
	t.Logf("%d windows over 3 intervals before coalescing, %d multi-interval windows", coalesced, multi)
	if coalesced == 0 || multi == 0 {
		t.Fatalf("corpus too tame: %d coalescing vertices, %d multi-interval windows", coalesced, multi)
	}
}

// TestAllocRegressionELWExact: a steady-state Exact allocates its result
// (one slice of sets, interval arena slabs) plus per-call scratch, a
// count that must not grow with |V|.
func TestAllocRegressionELWExact(t *testing.T) {
	for _, n := range []int{200, 5000} {
		g := randomGraph(rand.New(rand.NewSource(3)), n)
		if err := g.Check(); err != nil {
			t.Fatal(err)
		}
		p := DefaultParams(100)
		rt := graph.NewRetiming(g)
		run := func() {
			if _, err := Exact(g, rt, p, 0); err != nil {
				t.Fatal(err)
			}
		}
		run()
		const maxAllocs = 16
		got := testing.AllocsPerRun(10, run)
		t.Logf("Exact on %d vertices: %.0f allocs/run", n, got)
		if got > maxAllocs {
			t.Fatalf("Exact on %d vertices: %.0f allocs/run, want <= %d", n, got, maxAllocs)
		}
	}
}

package elw

import (
	"math/rand"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/graph"
)

func benchGraph(b *testing.B) *graph.Graph {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 500)
	if err := g.Check(); err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkExact500(b *testing.B) {
	g := benchGraph(b)
	p := DefaultParams(100)
	r := graph.NewRetiming(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exact(g, r, p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLabels500(b *testing.B) {
	g := benchGraph(b)
	p := DefaultParams(100)
	r := graph.NewRetiming(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeLabels(g, r, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactPar6000 times the exact ELW unions of eq. (3) on the
// par6000 retiming graph, unretimed, at its own clock period.
func BenchmarkExactPar6000(b *testing.B) {
	c, err := benchfmt.ParseFile("../../testdata/par6000.bench")
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromCircuit(c, nil)
	if err != nil {
		b.Fatal(err)
	}
	r := graph.NewRetiming(g)
	_, phi, err := g.ArrivalTimes(r)
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams(phi)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exact(g, r, p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

package serretime

import (
	"bytes"
	"sync"
	"testing"

	"serretime/internal/graph"
)

// TestRetimedGraphIsLazy: a retiming result carries its netlist but not
// its retiming graph. Writing it out never extracts the graph; the first
// query that needs one does, exactly once under concurrent callers, and
// gets the graph an eager extraction of the same circuit yields.
func TestRetimedGraphIsLazy(t *testing.T) {
	d, err := LoadBench("testdata/par2500.bench")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Retime(RetimeOptions{Algorithm: MinObsWin, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rd := res.Retimed
	var buf bytes.Buffer
	if err := rd.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	if rd.g != nil {
		t.Fatal("writing the result extracted its graph")
	}
	var wg sync.WaitGroup
	got := make([]*graph.Graph, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := rd.graph()
			if err != nil {
				t.Error(err)
			}
			got[i] = g
		}(i)
	}
	wg.Wait()
	for _, g := range got[1:] {
		if g != got[0] {
			t.Fatal("concurrent first uses extracted the graph twice")
		}
	}
	want, err := graph.FromCircuit(rd.c, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := got[0]
	if g.NumVertices() != want.NumVertices() || g.NumEdges() != want.NumEdges() {
		t.Fatalf("lazy graph %d/%d, eager %d/%d", g.NumVertices(), g.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for e := 0; e < g.NumEdges(); e++ {
		if g.Edge(graph.EdgeID(e)) != want.Edge(graph.EdgeID(e)) {
			t.Fatalf("edge %d: %+v, eager %+v", e, g.Edge(graph.EdgeID(e)), want.Edge(graph.EdgeID(e)))
		}
	}
	st, err := rd.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Vertices != want.NumGates() || st.Edges != want.NumEdges() {
		t.Fatalf("Stats %d/%d, eager graph %d/%d", st.Vertices, st.Edges, want.NumGates(), want.NumEdges())
	}
}

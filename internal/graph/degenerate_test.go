package graph

import (
	"strings"
	"testing"

	"serretime/internal/circuit"
)

// Degenerate FromCircuit inputs: extractions with no retimable logic must
// produce a consistent (if trivial) graph, and unresolvable structures must
// fail with an error, never a panic.

func TestFromCircuitZeroGates(t *testing.T) {
	b := circuit.NewBuilder("wire")
	b.PI("a")
	b.PO("a")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromCircuit(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Fatalf("wire circuit: got %d vertices, %d edges; want host only",
			g.NumVertices(), g.NumEdges())
	}
	// The empty graph must still pass its own invariants and support the
	// core queries without panicking.
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Out(Host)); got != 0 {
		t.Fatalf("host out-degree %d, want 0", got)
	}
	if _, err := g.NewSweep().Topo(nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromCircuitRegisteredWire(t *testing.T) {
	// PI -> DFF -> PO: registers with no gate anywhere on the path carry no
	// retimable logic and are dropped entirely.
	b := circuit.NewBuilder("regwire")
	b.PI("a")
	b.DFF("q", "a")
	b.PO("q")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromCircuit(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Fatalf("registered wire: got %d vertices, %d edges; want host only",
			g.NumVertices(), g.NumEdges())
	}
}

func TestFromCircuitSelfLoopDFF(t *testing.T) {
	// A DFF feeding itself has no combinational driver: the effective-driver
	// walk cannot terminate and must surface as an error.
	b := circuit.NewBuilder("selfloop")
	b.DFF("x", "x")
	b.PO("x")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromCircuit(c, nil); err == nil {
		t.Fatal("self-loop DFF: want error, got nil")
	} else if !strings.Contains(err.Error(), "DFF cycle") {
		t.Fatalf("self-loop DFF: unexpected error %v", err)
	}
}

func TestFromCircuitDFFCycleChain(t *testing.T) {
	// Two DFFs in a pure cycle (no gate), read by real logic elsewhere.
	b := circuit.NewBuilder("dffcycle")
	b.DFF("p", "q")
	b.DFF("q", "p")
	b.PI("a")
	b.Gate("g", circuit.FnAnd, "a", "p")
	b.PO("g")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromCircuit(c, nil); err == nil {
		t.Fatal("gate-free DFF cycle: want error, got nil")
	}
}

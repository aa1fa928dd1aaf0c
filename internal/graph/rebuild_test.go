package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/gen"
)

// randomLegalRetiming walks r from zero by steps random single-vertex
// moves of ±1, each kept only if every incident edge stays non-negative.
func randomLegalRetiming(rng *rand.Rand, g *Graph, steps int) Retiming {
	r := NewRetiming(g)
	for s := 0; s < steps; s++ {
		v := VertexID(1 + rng.Intn(g.NumGates()))
		d := int32(1 - 2*rng.Intn(2))
		r[v] += d
		ok := true
		for _, e := range g.Out(v) {
			ok = ok && g.WR(e, r) >= 0
		}
		for _, e := range g.In(v) {
			ok = ok && g.WR(e, r) >= 0
		}
		if !ok {
			r[v] -= d
		}
	}
	return r
}

func genCircuit(t testing.TB, s gen.Spec) (*circuit.Circuit, *Graph) {
	t.Helper()
	c, err := gen.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromCircuit(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, g
}

func benchBytes(t testing.TB, c *circuit.Circuit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := benchfmt.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameRebuilt compares the index rebuild with the legacy one: identical
// .bench bytes, node numbering, fanouts, chains and PO taps.
func sameRebuilt(t testing.TB, got, want *Rebuilt) error {
	if !bytes.Equal(benchBytes(t, got.C), benchBytes(t, want.C)) {
		return fmt.Errorf(".bench bytes differ")
	}
	if got.C.Name != want.C.Name || got.C.NumNodes() != want.C.NumNodes() {
		return fmt.Errorf("circuit %q/%d nodes, legacy %q/%d", got.C.Name, got.C.NumNodes(), want.C.Name, want.C.NumNodes())
	}
	for i := 0; i < got.C.NumNodes(); i++ {
		a, b := got.C.Node(circuit.NodeID(i)), want.C.Node(circuit.NodeID(i))
		if a.Name != b.Name || a.Kind != b.Kind || a.Fn != b.Fn ||
			!slices.Equal(a.Fanin, b.Fanin) || !slices.Equal(a.Fanout, b.Fanout) {
			return fmt.Errorf("node %d: %+v, legacy %+v", i, *a, *b)
		}
		if id, ok := got.C.Lookup(a.Name); !ok || id != circuit.NodeID(i) {
			return fmt.Errorf("node %d: Lookup(%q) = %d, %v", i, a.Name, id, ok)
		}
	}
	if !slices.Equal(got.C.PIs(), want.C.PIs()) || !slices.Equal(got.C.POs(), want.C.POs()) {
		return fmt.Errorf("PIs/POs differ")
	}
	if !slices.Equal(got.POTaps, want.POTaps) {
		return fmt.Errorf("POTaps %v, legacy %v", got.POTaps, want.POTaps)
	}
	if len(got.Chains) != len(want.Chains) {
		return fmt.Errorf("%d chains, legacy %d", len(got.Chains), len(want.Chains))
	}
	for drv, ids := range want.Chains {
		if !slices.Equal(got.Chains[drv], ids) {
			return fmt.Errorf("chain %q: %v, legacy %v", drv, got.Chains[drv], ids)
		}
	}
	return nil
}

// TestRebuildMatchesLegacy checks the index rebuild against the legacy
// name-resolving one on generated circuits at random legal retimings, and
// on s27.
func TestRebuildMatchesLegacy(t *testing.T) {
	type tc struct {
		c *circuit.Circuit
		g *Graph
	}
	var cases []tc
	c, g := loadS27(t)
	cases = append(cases, tc{c, g})
	for seed := int64(1); seed <= 8; seed++ {
		n := 30 << (seed % 4)
		c, g := genCircuit(t, gen.Spec{Name: fmt.Sprintf("gen%d", seed), Gates: n, Conns: 2 * n, FFs: n / 4, Seed: seed})
		cases = append(cases, tc{c, g})
	}
	rng := rand.New(rand.NewSource(1))
	chains := 0
	for i, k := range cases {
		for trial := 0; trial < 6; trial++ {
			r := randomLegalRetiming(rng, k.g, trial*k.g.NumGates())
			want, werr := legacyRebuild(k.c, k.g, r)
			got, err := Rebuild(k.c, k.g, r)
			if (err != nil) != (werr != nil) {
				t.Fatalf("case %d trial %d: err %v, legacy %v", i, trial, err, werr)
			}
			if err != nil {
				t.Fatalf("case %d trial %d: %v", i, trial, err)
			}
			if e := sameRebuilt(t, got, want); e != nil {
				t.Fatalf("case %d trial %d: %v", i, trial, e)
			}
			chains += len(got.Chains)
		}
	}
	if chains == 0 {
		t.Fatal("corpus built no register chain")
	}
}

// TestRebuildTapNameCollision: a gate already named like a chain tap
// ("a$r1") makes both rebuilds fail with the same duplicate-net error.
func TestRebuildTapNameCollision(t *testing.T) {
	b := circuit.NewBuilder("clash")
	b.PI("x")
	b.Gate("a", circuit.FnNot, "x")
	b.DFF("q", "a")
	b.Gate("a$r1", circuit.FnNot, "q")
	b.PO("a$r1")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromCircuit(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRetiming(g)
	_, werr := legacyRebuild(c, g, r)
	_, err = Rebuild(c, g, r)
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Fatalf("err %v, legacy %v", err, werr)
	}
}

func par6000Retimed(t testing.TB) (*circuit.Circuit, *Graph, Retiming) {
	c, g := genCircuit(t, gen.Spec{Name: "par6000", Gates: 6000, Conns: 13200, FFs: 1200})
	return c, g, randomLegalRetiming(rand.New(rand.NewSource(1)), g, 6000)
}

// TestAllocRegressionRebuild pins the allocation count of a par6000
// rebuild (84 when the cap was set). The name-resolving rebuild made
// 37,998 before circuit.Builder packed its fanouts, and makes ~29k with
// it: map entries, a name per tap, a fanin list per node. The index
// rebuild allocates a fixed set of arrays, the name map, validation's
// scratch and the doubling growth of two appended lists.
func TestAllocRegressionRebuild(t *testing.T) {
	c, g, r := par6000Retimed(t)
	run := func() {
		if _, err := Rebuild(c, g, r); err != nil {
			t.Fatal(err)
		}
	}
	legacy := testing.AllocsPerRun(3, func() {
		if _, err := legacyRebuild(c, g, r); err != nil {
			t.Fatal(err)
		}
	})
	got := testing.AllocsPerRun(5, run)
	t.Logf("par6000 rebuild: %.0f allocs, legacy %.0f", got, legacy)
	const maxAllocs = 120
	if got > maxAllocs {
		t.Fatalf("par6000 rebuild: %.0f allocs, want <= %d (legacy %.0f)", got, maxAllocs, legacy)
	}
}

func BenchmarkRebuildPar6000(b *testing.B) {
	c, g, r := par6000Retimed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rebuild(c, g, r); err != nil {
			b.Fatal(err)
		}
	}
}

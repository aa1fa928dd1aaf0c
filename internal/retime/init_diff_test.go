package retime

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"serretime/internal/gen"
	"serretime/internal/graph"
	"serretime/internal/telemetry"
)

// legacyInitialize is InitializeCtx on the legacy search, reporting the
// sweeps it ran.
func legacyInitialize(g *graph.Graph, o Options) (*Init, int, error) {
	sw := g.NewSweep()
	init, err := legacyInitializeCtx(context.Background(), sw, o, telemetry.Nop)
	return init, sw.Sweeps(), err
}

// initSweeps is Initialize reporting the sweeps it ran, read from its
// trace as the service reads them.
func initSweeps(t testing.TB, g *graph.Graph, o Options) (*Init, int64, error) {
	tr := telemetry.NewTrace(telemetry.TraceID{})
	o.Recorder = tr
	init, err := Initialize(g, o)
	return init, tr.Doc("", "", "", "", false).Stats().Counter(telemetry.CounterInitSweeps), err
}

// sameInit compares two initializations field by field, floats bit for
// bit and the seed labels including LT/RT.
func sameInit(got, want *Init) error {
	if !slices.Equal(got.R, want.R) {
		return fmt.Errorf("R differs")
	}
	for _, f := range []struct {
		name string
		g, w float64
	}{
		{"Phi", got.Phi, want.Phi},
		{"PhiMin", got.PhiMin, want.PhiMin},
		{"Rmin", got.Rmin, want.Rmin},
	} {
		if math.Float64bits(f.g) != math.Float64bits(f.w) {
			return fmt.Errorf("%s %v, legacy %v", f.name, f.g, f.w)
		}
	}
	if got.SetupHoldOK != want.SetupHoldOK {
		return fmt.Errorf("SetupHoldOK %v, legacy %v", got.SetupHoldOK, want.SetupHoldOK)
	}
	if (got.Labels == nil) != (want.Labels == nil) {
		return fmt.Errorf("Labels nil %v, legacy nil %v", got.Labels == nil, want.Labels == nil)
	}
	if got.Labels != nil {
		if v, diff := got.Labels.FirstDiff(want.Labels); diff {
			return fmt.Errorf("Labels differ at v%d", v)
		}
	}
	return nil
}

// initCorpus is the differential corpus: generated circuits over several
// seeds and sizes, the Table I substitutes at the size the end-to-end
// benchmark submits them (each shrunk under 2000 gates), and small
// synthetic graphs on which the setup+hold search fails and the
// min-period fallback runs.
func initCorpus(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	add := func(key string, s gen.Spec) {
		c, err := gen.Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromCircuit(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[key] = g
	}
	for seed := int64(1); seed <= 6; seed++ {
		n := 40 << (seed % 4)
		add(fmt.Sprintf("gen%d_%d", seed, n), gen.Spec{Name: "gen", Gates: n, Conns: 2 * n, FFs: n / 5, Seed: seed})
	}
	for _, row := range gen.TableI {
		add("tablei:"+row.Name, row.Scale((row.Gates+1999)/2000).Spec)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		b := graph.NewBuilder()
		n := 3 + rng.Intn(12)
		vs := make([]graph.VertexID, n)
		for j := range vs {
			vs[j] = b.AddVertex("v", float64(1+rng.Intn(6))/2)
		}
		b.AddEdge(graph.Host, vs[0], int32(rng.Intn(3)))
		for j := 1; j < n; j++ {
			b.AddEdge(vs[rng.Intn(j)], vs[j], int32(rng.Intn(2)))
			if rng.Intn(3) == 0 {
				b.AddEdge(vs[j], vs[rng.Intn(j+1)], 1+int32(rng.Intn(2)))
			}
		}
		b.AddEdge(vs[n-1], graph.Host, int32(rng.Intn(2)))
		out[fmt.Sprintf("synthetic%d", i)] = b.Build()
	}
	return out
}

// TestInitializeMatchesLegacy runs the legacy search and the shared-pass
// one side by side: the same R, Phi, PhiMin, Rmin, SetupHoldOK and seed
// labels, with no more sweeps than the legacy search ran. Both branches of
// Section V — the setup+hold search and the min-period fallback — must
// occur in the corpus.
func TestInitializeMatchesLegacy(t *testing.T) {
	var ok, fallback int
	opts := []Options{DefaultOptions(), {Ts: 0.5, Th: 2, Epsilon: 0.05}, {Ts: 0, Th: 6, Epsilon: 0.10}}
	for name, g := range initCorpus(t) {
		for oi, o := range opts {
			if oi > 0 && strings.HasPrefix(name, "tablei:") {
				break // Table I rows: the daemon's defaults only
			}
			want, legacySweeps, werr := legacyInitialize(g, o)
			got, sweeps, err := initSweeps(t, g, o)
			if (err != nil) != (werr != nil) {
				t.Fatalf("%s opt %d: err %v, legacy %v", name, oi, err, werr)
			}
			if err != nil {
				continue
			}
			if e := sameInit(got, want); e != nil {
				t.Fatalf("%s opt %d: %v", name, oi, e)
			}
			if sweeps > int64(legacySweeps) {
				t.Fatalf("%s opt %d: %d sweeps, legacy %d", name, oi, sweeps, legacySweeps)
			}
			if got.SetupHoldOK {
				ok++
			} else {
				fallback++
			}
		}
	}
	t.Logf("%d setup+hold initializations, %d min-period fallbacks", ok, fallback)
	if ok == 0 || fallback == 0 {
		t.Fatalf("corpus misses a branch: %d setup+hold, %d fallback", ok, fallback)
	}
}

// TestInitSweepsPar6000 pins the sweep count of the par6000 session
// netlist's initialization: the passes at r = 0 run once, not once per
// probe, and the hold loop reuses the relaxation's last pass (32 sweeps
// before, 12 after).
func TestInitSweepsPar6000(t *testing.T) {
	if testing.Short() {
		t.Skip("par6000 in -short")
	}
	g := par6000(t)
	_, legacySweeps, err := legacyInitialize(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, sweeps, err := initSweeps(t, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("par6000 init: %d sweeps, legacy %d", sweeps, legacySweeps)
	if sweeps > 13 {
		t.Fatalf("par6000 init ran %d sweeps, want <= 13 (legacy %d)", sweeps, legacySweeps)
	}
}

func par6000(t testing.TB) *graph.Graph {
	t.Helper()
	c, err := gen.Generate(gen.Spec{Name: "par6000", Gates: 6000, Conns: 13200, FFs: 1200})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromCircuit(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAllocRegressionInit pins the allocation count of a par6000
// initialization (104 when the cap was set, 156 for the legacy search).
// It allocates per probe and per label computation (retiming vectors,
// label arrays), never per vertex.
func TestAllocRegressionInit(t *testing.T) {
	g := par6000(t)
	run := func() {
		if _, err := Initialize(g, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(3, run)
	legacy := testing.AllocsPerRun(3, func() {
		if _, _, err := legacyInitialize(g, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("par6000 init: %.0f allocs, legacy %.0f", got, legacy)
	const maxAllocs = 150
	if got > maxAllocs {
		t.Fatalf("par6000 init: %.0f allocs, want <= %d (legacy %.0f)", got, maxAllocs, legacy)
	}
}

func BenchmarkInitPar6000(b *testing.B) {
	g := par6000(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Initialize(g, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

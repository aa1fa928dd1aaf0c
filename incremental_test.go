package serretime

import (
	"testing"

	"serretime/internal/telemetry"
)

// incrementalTestDesigns is the circuit set of the incremental-state
// property tests: both checked-in netlists plus synthetic circuits large
// enough that the solver loop takes many label updates.
func incrementalTestDesigns(t *testing.T) []*Design {
	t.Helper()
	var designs []*Design
	for _, p := range []string{"testdata/s27.bench", "testdata/pipeline4.bench"} {
		d, err := Load(p)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	for _, spec := range []CircuitSpec{
		{Name: "inc-a", Gates: 200, Conns: 450, FFs: 60},
		{Name: "inc-b", Gates: 500, Conns: 1100, FFs: 150, Depth: 14},
	} {
		d, err := Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	return designs
}

// TestRetimeIncrementalMatchesFullRecompute is the end-to-end
// behavior-preservation property: on every test circuit, the full pipeline
// run with dirty-region label patching plus the shadow oracle
// (CheckLabels) must produce exactly the result of the pre-refactor
// recompute-per-move mode (FullLabelRecompute), down to the per-vertex
// retiming of the materialized circuit.
func TestRetimeIncrementalMatchesFullRecompute(t *testing.T) {
	for _, d := range incrementalTestDesigns(t) {
		for _, algo := range []Algorithm{MinObs, MinObsWin} {
			want, err := d.Retime(RetimeOptions{Algorithm: algo, FullLabelRecompute: true})
			if err != nil {
				t.Fatalf("%s/%v full: %v", d.Name(), algo, err)
			}
			tr := telemetry.NewTrace(telemetry.TraceID{})
			got, err := d.Retime(RetimeOptions{Algorithm: algo, CheckLabels: true, Recorder: tr})
			if err != nil {
				t.Fatalf("%s/%v checked: %v", d.Name(), algo, err)
			}
			if got.Rounds != want.Rounds || got.Steps != want.Steps ||
				got.Phi != want.Phi || got.Rmin != want.Rmin ||
				got.After != want.After || got.Before != want.Before {
				t.Fatalf("%s/%v: checked run diverged: rounds %d/%d steps %d/%d after %+v / %+v",
					d.Name(), algo, got.Rounds, want.Rounds, got.Steps, want.Steps, got.After, want.After)
			}
			gs, err := got.Retimed.Stats()
			if err != nil {
				t.Fatal(err)
			}
			ws, err := want.Retimed.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if gs != ws {
				t.Fatalf("%s/%v: retimed circuits differ: %+v vs %+v", d.Name(), algo, gs, ws)
			}
			// The acceptance bar: on the checked-in testdata circuits the
			// incremental path must actually be exercised (hit ratio > 0),
			// with full recomputes only on the counted fallback path. The
			// synthetic circuits are allowed all-fallback runs — their
			// first moves can dirty most of the circuit, where falling
			// back is the intended behavior.
			s := tr.Doc("", "", "", "", false).Stats()
			testdata := d.Name() == "s27" || d.Name() == "pipeline4"
			if algo == MinObsWin && testdata && s.Counter(telemetry.CounterLabelPatches) == 0 {
				t.Errorf("%s/%v: incremental-hit ratio is zero (fulls=%d fallbacks=%d)",
					d.Name(), algo, s.Counter(telemetry.CounterLabelFulls),
					s.Counter(telemetry.CounterLabelFallbacks))
			}
			if f, fb := s.Counter(telemetry.CounterLabelFulls), s.Counter(telemetry.CounterLabelFallbacks); f > fb {
				// Non-fallback fulls are only the bootstrap when no seed
				// labels exist; the initialization always provides them.
				t.Errorf("%s/%v: %d full recomputes beyond the %d fallbacks",
					d.Name(), algo, f, fb)
			}
		}
	}
}

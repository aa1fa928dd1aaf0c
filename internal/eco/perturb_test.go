package eco

import (
	"bytes"
	"reflect"
	"testing"

	"serretime"
	"serretime/internal/benchfmt"
)

// TestGenDeterministic pins the generator's contract: the stream depends
// only on the base circuit and the seed, and every delta applies cleanly
// to an independent mirror that then encodes to the same bytes as the
// generator's own, and parses into a Design (no combinational cycle).
func TestGenDeterministic(t *testing.T) {
	base, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	const deltas = 40 // covers every branch of Next's mix several times
	a, b, other := NewGen(base, 3), NewGen(base, 3), NewGen(base, 4)
	mirror := base.Clone()
	kinds := map[string]int{}
	differs := false
	for i := 0; i < deltas; i++ {
		ops, err := a.Next()
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		again, err := b.Next()
		if err != nil {
			t.Fatalf("delta %d (second generator): %v", i, err)
		}
		if !reflect.DeepEqual(ops, again) {
			t.Fatalf("delta %d: same seed, different ops:\n%+v\n%+v", i, ops, again)
		}
		if alt, err := other.Next(); err == nil && !reflect.DeepEqual(ops, alt) {
			differs = true
		}

		if _, err := serretime.ApplyDeltaOps(mirror, ops); err != nil {
			t.Fatalf("delta %d %+v does not apply to the mirror: %v", i, ops, err)
		}
		for _, op := range ops {
			kinds[op.Op]++
		}
		var got bytes.Buffer
		if err := benchfmt.Write(&got, mirror); err != nil {
			t.Fatal(err)
		}
		want, err := a.Bench()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("delta %d: mirror and generator netlists diverge", i)
		}
		if _, err := serretime.ParseBench(bytes.NewReader(want), "eco"); err != nil {
			t.Fatalf("delta %d: mutated netlist does not build a Design: %v", i, err)
		}
	}
	if !differs {
		t.Error("seeds 3 and 4 produced the same stream")
	}
	for _, k := range []string{"rewire", "add_gate", "mark_po", "unmark_po", "rm_node"} {
		if kinds[k] == 0 {
			t.Errorf("no %s op in %d deltas: %v", k, deltas, kinds)
		}
	}
}

package serretime

import (
	"encoding/json"
	"errors"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/guard"
)

// FuzzApplyDeltaOps feeds arbitrary bytes through the session delta path:
// JSON-decode them into ops the way the /delta handler does, apply them to
// a clone of s27, and build a Design from the result, as RetimeDelta
// does. Any input may be rejected, but only with a returned error: a
// panic, or a panic that guard recovered into ErrInternal, is a bug.
func FuzzApplyDeltaOps(f *testing.F) {
	base, err := benchfmt.ParseFile("testdata/s27.bench")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`[{"op":"rewire","name":"G11","fanin":["G5","G9"]}]`,
		`[{"op":"add_gate","name":"eco1","fn":"NAND","fanin":["G0","G1"]},{"op":"mark_po","name":"eco1"}]`,
		`[{"op":"add_dff","name":"eco2","fanin":["G10"]},{"op":"rm_node","name":"eco2"}]`,
		`[{"op":"unmark_po","name":"G17"},{"op":"mark_po","name":"G17"}]`,
		`[{"op":"rewire","name":"G8","fanin":["G16"]}]`,
		`[{"op":"rm_node","name":"G0"}]`,
		`[{"op":"add_gate","name":"G0","fn":"CONST1"}]`,
		`[{"op":"frob"}]`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []DeltaOp
		if json.Unmarshal(data, &ops) != nil {
			return
		}
		c := base.Clone()
		if _, err := ApplyDeltaOps(c, ops); err != nil {
			return
		}
		if _, err := newDesign(c); errors.Is(err, guard.ErrInternal) {
			t.Fatalf("ops %s: newDesign panicked: %v", data, err)
		}
	})
}

package serretime

// Tests of what warm starting (core.Options.WarmStart, the ECO session
// path, DESIGN.md §17) preserves. Bulk-seeding the optimizer's
// constraint engine with the P0 requirement closure changes the
// constraint-discovery cost, and on most circuits nothing else: the
// retimed netlist, objective, and SER analyses are bit-identical to the
// lazy cascade's. It is not a fixpoint guarantee — on a few Table I
// substitutes the seeded solve commits a slightly different retiming —
// so those are pinned with a bound instead of byte identity.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/gen"
)

// warmStartCases pairs circuits with option sets covering both
// algorithms, both gains formulations, and the fast analysis engine.
func warmStartCases(t *testing.T) []struct {
	name string
	d    func() *Design
	opt  RetimeOptions
} {
	t.Helper()
	fromFile := func(path string) func() *Design {
		return func() *Design {
			d, err := Load(path)
			if err != nil {
				t.Fatalf("load %s: %v", path, err)
			}
			return d
		}
	}
	fromSpec := func(s CircuitSpec) func() *Design {
		return func() *Design {
			d, err := Synthesize(s)
			if err != nil {
				t.Fatalf("generate %s: %v", s.Name, err)
			}
			return d
		}
	}
	small := AnalysisOptions{Frames: 3, SignatureWords: 1}
	return []struct {
		name string
		d    func() *Design
		opt  RetimeOptions
	}{
		{"s27-minobswin", fromFile(filepath.Join("testdata", "s27.bench")),
			RetimeOptions{Algorithm: MinObsWin, Analysis: small}},
		{"pipeline4-minobs", fromFile(filepath.Join("testdata", "pipeline4.bench")),
			RetimeOptions{Algorithm: MinObs, Analysis: small}},
		{"gen-wide-minobswin", fromSpec(CircuitSpec{Name: "warm-wide", Gates: 420, Conns: 980, FFs: 48, Depth: 9, FanoutSkew: 0.25}),
			RetimeOptions{Algorithm: MinObsWin, Analysis: small}},
		{"gen-deep-literal", fromSpec(CircuitSpec{Name: "warm-deep", Gates: 300, Conns: 640, FFs: 30, Depth: 24}),
			RetimeOptions{Algorithm: MinObsWin, LiteralGains: true, Analysis: small}},
		{"gen-deep-fast", fromSpec(CircuitSpec{Name: "warm-deep-fast", Gates: 300, Conns: 640, FFs: 30, Depth: 24}),
			RetimeOptions{Algorithm: MinObs, Analysis: AnalysisOptions{Accuracy: AccuracyFast, Frames: 3, SignatureWords: 1}}},
		{"par2500-minobswin", fromFile(filepath.Join("testdata", "par2500.bench")),
			RetimeOptions{Algorithm: MinObsWin, Analysis: small}},
	}
}

// retimedBytes renders the result the service serves for a job: the
// retimed circuit in canonical .bench form.
func retimedBytes(t *testing.T, res *RetimeResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Retimed.WriteBench(&buf); err != nil {
		t.Fatalf("encode retimed: %v", err)
	}
	return buf.Bytes()
}

func TestWarmStartMatchesCold(t *testing.T) {
	for _, tc := range warmStartCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cold, err := tc.d().Retime(tc.opt)
			if err != nil {
				t.Fatalf("cold retime: %v", err)
			}
			warm := tc.opt
			warm.WarmStart = true
			got, err := tc.d().Retime(warm)
			if err != nil {
				t.Fatalf("warm retime: %v", err)
			}
			if cold.Rounds != got.Rounds {
				t.Errorf("rounds: cold %d warm %d", cold.Rounds, got.Rounds)
			}
			if cold.After.SER != got.After.SER || cold.After.SharedFFs != got.After.SharedFFs {
				t.Errorf("analysis: cold SER=%v FFs=%d, warm SER=%v FFs=%d",
					cold.After.SER, cold.After.SharedFFs, got.After.SER, got.After.SharedFFs)
			}
			cb, wb := retimedBytes(t, cold), retimedBytes(t, got)
			if !bytes.Equal(cb, wb) {
				t.Fatalf("retimed netlist differs (cold %d bytes, warm %d bytes)", len(cb), len(wb))
			}
			if testing.Verbose() {
				fmt.Printf("%s: steps cold=%d warm=%d\n", tc.name, cold.Steps, got.Steps)
			}
		})
	}
}

// tableISubstitute rebuilds input i of the Table I batch stream of the
// end-to-end benchmark (perfbench, seed 1): row i mod 21 of Table I,
// shrunk under 2000 gates, generated from the FNV-1a mix of
// "1/tablei/<i>", and parsed back from its .bench bytes as the daemon
// parses an upload.
func tableISubstitute(t *testing.T, i int) *Design {
	t.Helper()
	row := gen.TableI[i%len(gen.TableI)]
	spec := row.Scale((row.Gates + 1999) / 2000).Spec
	spec.Name = fmt.Sprintf("%s_p%d", row.Name, i/len(gen.TableI))
	h := fnv.New64a()
	fmt.Fprintf(h, "1/tablei/%d", i)
	if spec.Seed = int64(h.Sum64() >> 1); spec.Seed == 0 {
		spec.Seed = 1
	}
	c, err := gen.Generate(spec)
	if err != nil {
		t.Fatalf("generate %s: %v", spec.Name, err)
	}
	var buf bytes.Buffer
	if err := benchfmt.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	d, err := ParseBench(&buf, spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWarmStartCloseToCold pins the two Table I substitutes among the
// benchmark's first 126 inputs on which a seeded solve was measured to
// commit a different retiming than the default unseeded one (s13207_p5:
// SER 2.834e-4 vs 2.830e-4; s38584.1_p5: 7.949e-3 vs 7.945e-3). What
// holds is asserted: both solves succeed on the same tier with the same
// number of commit rounds, and their SER differs by under 0.5%.
func TestWarmStartCloseToCold(t *testing.T) {
	for _, i := range []int{5*21 + 0, 5*21 + 4} { // s13207_p5, s38584.1_p5
		d := tableISubstitute(t, i)
		t.Run(d.Name(), func(t *testing.T) {
			opt := RobustOptions{RetimeOptions: RetimeOptions{Workers: 1}}
			cold, err := d.RetimeRobust(context.Background(), opt)
			if err != nil {
				t.Fatalf("unseeded: %v", err)
			}
			opt.WarmStart = true
			warm, err := tableISubstitute(t, i).RetimeRobust(context.Background(), opt)
			if err != nil {
				t.Fatalf("seeded: %v", err)
			}
			if cold.Tier != warm.Tier || cold.Rounds != warm.Rounds {
				t.Fatalf("tier/rounds: unseeded %v/%d, seeded %v/%d",
					cold.Tier, cold.Rounds, warm.Tier, warm.Rounds)
			}
			if diff := math.Abs(warm.After.SER-cold.After.SER) / cold.After.SER; diff >= 0.005 {
				t.Fatalf("SER: unseeded %.4e, seeded %.4e (%.2f%% apart, want < 0.5%%)",
					cold.After.SER, warm.After.SER, 100*diff)
			}
			if testing.Verbose() {
				fmt.Printf("%s: SER unseeded %.4e seeded %.4e, bytes equal %v\n", d.Name(),
					cold.After.SER, warm.After.SER, bytes.Equal(retimedBytes(t, cold.RetimeResult), retimedBytes(t, warm.RetimeResult)))
			}
		})
	}
}

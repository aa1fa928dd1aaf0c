package obs

import (
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/sim"
)

func BenchmarkComputeS27(b *testing.B) {
	c, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sim.Run(c, sim.Config{Words: 4, Frames: 15, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(tr, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputePar6000 times the exact ODC pass alone on par6000 at the
// paper's setting (15 frames × 4 words) on one worker; the trace is
// simulated once outside the loop.
func BenchmarkComputePar6000(b *testing.B) {
	c, err := benchfmt.ParseFile("../../testdata/par6000.bench")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sim.Run(c, sim.Config{Words: 4, Frames: 15, Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(tr, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ECO mode (-eco netlist.bench): measure the warm-session delta
// re-solve against the cold full solve it must match.
//
// Load the netlist, open a serretime.WarmState, stream -deltas generated
// single-gate perturbations through RetimeDelta, and for every delta also
// solve the mutated netlist from scratch with the unseeded default
// options. The two results must be byte-identical — the cold solve is the
// oracle, not a baseline estimate — and the timing ratio is the headline
// number. Most of that ratio is seeded constraint discovery, which the
// session applies and the cold default does not: the session open, itself
// a seeded cold solve, costs about as much as one warm delta.
// Results print as `go test -bench` style lines so `cmd/benchjson` can
// append them to a trajectory file (`make bench-eco` → BENCH_eco.json).
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"serretime"
	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/eco"
)

// ecoOptions builds the solve options both sides of the comparison use.
func ecoOptions(cfg config, eng serretime.EngineKind) serretime.RobustOptions {
	return serretime.RobustOptions{
		RetimeOptions: serretime.RetimeOptions{
			Algorithm: serretime.MinObsWin,
			Analysis:  serretime.AnalysisOptions{Accuracy: cfg.acc, Frames: cfg.frames, SignatureWords: cfg.words},
			Engine:    eng,
			Workers:   cfg.workers,
		},
		Timeout: cfg.timeout,
		Retries: cfg.retries,
	}
}

// loadECOBase reads the base netlist once and parses it twice: into the
// Design the solver side works on and into the circuit the delta
// generator mutates. Starting both from the same canonical bytes keeps
// the two node-for-node aligned, which is what makes the cold solve of
// the generator's netlist an exact oracle (see internal/eco).
func loadECOBase(path string) ([]byte, *serretime.Design, *circuit.Circuit, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	// Canonicalize first: node IDs follow declaration order, and the
	// alignment argument needs both sides to parse the *canonical* form
	// (inputs first, then gates in ID order) — the original file may
	// declare in any order.
	c0, err := benchfmt.Parse(bytes.NewReader(raw), filepath.Base(path))
	if err != nil {
		return nil, nil, nil, err
	}
	var canon bytes.Buffer
	if err := benchfmt.Write(&canon, c0); err != nil {
		return nil, nil, nil, err
	}
	d, err := serretime.Parse(bytes.NewReader(canon.Bytes()), filepath.Base(path))
	if err != nil {
		return nil, nil, nil, err
	}
	mirror, err := benchfmt.Parse(bytes.NewReader(canon.Bytes()), filepath.Base(path))
	if err != nil {
		return nil, nil, nil, err
	}
	return canon.Bytes(), d, mirror, nil
}

func retimedECO(res *serretime.RobustResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := res.Retimed.WriteBench(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// coldSolve is the oracle: a from-scratch solve of the mutated netlist.
func coldSolve(ctx context.Context, bench []byte, opt serretime.RobustOptions) ([]byte, error) {
	d, err := serretime.Parse(bytes.NewReader(bench), "eco-oracle.bench")
	if err != nil {
		return nil, err
	}
	res, err := d.RetimeRobust(ctx, opt)
	if err != nil {
		return nil, err
	}
	return retimedECO(res)
}

func runECO(cfg config, eng serretime.EngineKind, stdout, stderr io.Writer) int {
	ctx := context.Background()
	_, d, mirror, err := loadECOBase(cfg.ecoPath)
	if err != nil {
		fmt.Fprintf(stderr, "serbench: eco: %v\n", err)
		return 1
	}
	name := strings.TrimSuffix(filepath.Base(cfg.ecoPath), filepath.Ext(cfg.ecoPath))
	opt := ecoOptions(cfg, eng)

	openStart := time.Now()
	w, err := serretime.NewWarmState(ctx, d, opt)
	if err != nil {
		fmt.Fprintf(stderr, "serbench: eco: open: %v\n", err)
		return 1
	}
	openTime := time.Since(openStart)

	g := eco.NewGen(mirror, cfg.ecoSeed)
	var coldTotal, warmTotal time.Duration
	warmCount := 0
	for i := 0; i < cfg.ecoDeltas; i++ {
		ops, err := g.Next()
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: %v\n", i, err)
			return 1
		}
		start := time.Now()
		res, stats, err := w.RetimeDelta(ctx, ops, opt)
		warmTotal += time.Since(start)
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: %v\n", i, err)
			return 1
		}
		got, err := retimedECO(res)
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: %v\n", i, err)
			return 1
		}
		if stats.Warm {
			warmCount++
		} else {
			fmt.Fprintf(stderr, "serbench: eco: delta %d fell back to a full solve: %s\n", i, stats.FallbackReason)
		}

		mut, err := g.Bench()
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: %v\n", i, err)
			return 1
		}
		start = time.Now()
		want, err := coldSolve(ctx, mut, opt)
		coldTotal += time.Since(start)
		if err != nil {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: oracle: %v\n", i, err)
			return 1
		}
		if !bytes.Equal(got, want) {
			fmt.Fprintf(stderr, "serbench: eco: delta %d: MISMATCH: incremental result differs from the cold solve of the same netlist\n", i)
			return 1
		}
	}

	n := cfg.ecoDeltas
	fmt.Fprintf(stdout, "BenchmarkECO/circuit=%s/phase=open 1 %d ns/op\n", name, openTime.Nanoseconds())
	fmt.Fprintf(stdout, "BenchmarkECO/circuit=%s/phase=cold %d %d ns/op\n", name, n, coldTotal.Nanoseconds()/int64(n))
	fmt.Fprintf(stdout, "BenchmarkECO/circuit=%s/phase=delta %d %d ns/op\n", name, n, warmTotal.Nanoseconds()/int64(n))
	speedup := float64(coldTotal) / float64(warmTotal)
	fmt.Fprintf(stderr, "serbench: eco: %s: %d deltas, %d warm, all bit-identical to cold solves; delta re-solve %.2fx faster than cold (%.0fms vs %.0fms per delta)\n",
		name, n, warmCount, speedup,
		float64(warmTotal.Milliseconds())/float64(n), float64(coldTotal.Milliseconds())/float64(n))
	if warmCount == 0 {
		fmt.Fprintln(stderr, "serbench: eco: no delta took the warm path")
		return 1
	}
	if cfg.ecoMin > 0 && speedup < cfg.ecoMin {
		fmt.Fprintf(stderr, "serbench: eco: speedup %.2fx below the -ecomin %.1fx floor\n", speedup, cfg.ecoMin)
		return 2
	}
	return 0
}

package obs

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/gen"
	"serretime/internal/par"
	"serretime/internal/sim"
)

// pullCompute is the pull-form ODC pass that ComputeCtx replaced, kept
// verbatim (bar the reverse order, which it now builds itself) as the
// reference of TestPushMatchesPull: for every (node x, gate fanout y,
// word) it re-gathers y's pins with x complemented and re-evaluates y.
// It is built differently from the push kernel (no sensitivity closed
// forms, no order-position predicate: the source-order defect arises here
// from reading a mask that is not yet final).
func pullCompute(ctx context.Context, tr *sim.Trace, opt Options) (*Result, error) {
	csr := tr.CSR()
	if opt.Frame < 0 || opt.Frame >= tr.Frames {
		return nil, fmt.Errorf("obs: frame %d outside trace of %d frames", opt.Frame, tr.Frames)
	}
	n := csr.N
	w := tr.Words

	// odcNext[node] = ODC mask of the node in frame f+1 (register
	// coupling); odcCur[node] = mask being built for frame f.
	odcNext := odcPool.Get(n * w)
	odcCur := odcPool.Get(n * w)
	defer func() {
		odcPool.Put(odcNext)
		odcPool.Put(odcCur)
	}()

	// The pass walks every node in reverse topological order.
	revOrder := slices.Clone(csr.Order)
	slices.Reverse(revOrder)

	pool := par.New("obs.compute", opt.Workers, opt.Recorder)
	var result *Result
	for f := tr.Frames - 1; f >= opt.Frame; f-- {
		clear(odcCur)
		// Shard the backward pass across word columns. For a fixed word,
		// when node x reads odcCur of a gate fanout y, y is later in topo
		// order, hence earlier in rev order, hence already final — the same
		// dependency argument as the sequential pass, per column.
		plane := tr.Plane(f)
		lastFrame := f == tr.Frames-1
		err := pool.Run(ctx, w, func(worker, lo, hi int) error {
			in := make([]uint64, 0, 8)
			// evalFlip recomputes gate y with fanin x complemented, reading
			// the clean values straight off the frame's signature plane.
			evalFlip := func(y circuit.NodeID, x circuit.NodeID, word int) uint64 {
				in = in[:0]
				for _, fid := range csr.FaninOf(y) {
					v := plane[int(fid)*w+word]
					if fid == x {
						v = ^v
					}
					in = append(in, v)
				}
				return csr.Fn[y].Eval(in)
			}
			for _, x := range revOrder {
				base := int(x) * w
				dst := odcCur[base : base+w]
				if csr.IsPO[x] {
					for i := lo; i < hi; i++ {
						dst[i] = ^uint64(0)
					}
				}
				for _, y := range csr.FanoutOf(x) {
					ybase := int(y) * w
					switch csr.Kind[y] {
					case circuit.KindDFF:
						// The flip is stored and surfaces at the DFF's
						// output in frame f+1.
						if lastFrame {
							if !opt.DropFinalRegisters {
								for i := lo; i < hi; i++ {
									dst[i] = ^uint64(0)
								}
							}
							continue
						}
						for i := lo; i < hi; i++ {
							dst[i] |= odcNext[ybase+i]
						}
					case circuit.KindGate:
						for i := lo; i < hi; i++ {
							local := evalFlip(y, x, i) ^ plane[ybase+i]
							dst[i] |= local & odcCur[ybase+i]
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if f == opt.Frame {
			res := &Result{Obs: make([]float64, n), K: 64 * w, Frame: opt.Frame}
			for i := 0; i < n; i++ {
				res.Obs[i] = sim.Density(odcCur[i*w : (i+1)*w])
			}
			result = res
			break
		}
		odcCur, odcNext = odcNext, odcCur
	}
	return result, nil
}

// pushCorpus returns the circuits of the push-vs-pull differential test:
// the Table I substitutes at the size perfbench solves them (each shrunk
// by the smallest factor that brings it under 2000 gates), par2500, and
// random circuits whose gates read one net on several pins.
func pushCorpus(t *testing.T) []*circuit.Circuit {
	t.Helper()
	var cs []*circuit.Circuit
	for _, row := range gen.TableI {
		spec := row.Scale((row.Gates + 1999) / 2000).Spec
		c, err := gen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	c, err := benchfmt.ParseFile("../../testdata/par2500.bench")
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, c)
	for seed := int64(1); seed <= 6; seed++ {
		cs = append(cs, repeatedPinCircuit(t, seed, 300))
	}
	return cs
}

// repeatedPinCircuit builds a random sequential circuit in which about a
// third of the multi-input gates read some net on two or more pins. Gates
// may read flip-flop outputs declared later, so sources land both before
// and after their readers in the topological order.
func repeatedPinCircuit(t *testing.T, seed int64, gates int) *circuit.Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder(fmt.Sprintf("rep%d", seed))
	var nets []string
	for i := 0; i < 6; i++ {
		nets = append(nets, fmt.Sprintf("pi%d", i))
		b.PI(nets[len(nets)-1])
	}
	const ffs = 12
	ffNets := make([]string, ffs)
	for i := range ffNets {
		ffNets[i] = fmt.Sprintf("ff%d", i)
	}
	fns := []circuit.Func{
		circuit.FnAnd, circuit.FnNand, circuit.FnOr, circuit.FnNor,
		circuit.FnXor, circuit.FnXnor, circuit.FnBuf, circuit.FnNot,
	}
	pick := func() string {
		if rng.Intn(4) == 0 {
			return ffNets[rng.Intn(ffs)]
		}
		return nets[rng.Intn(len(nets))]
	}
	for g := 0; g < gates; g++ {
		name := fmt.Sprintf("g%d", g)
		fn := fns[rng.Intn(len(fns))]
		var in []string
		switch {
		case g%97 == 0:
			fn = circuit.FnConst1
		case fn == circuit.FnBuf || fn == circuit.FnNot:
			in = []string{pick()}
		default:
			k := 2 + rng.Intn(4)
			for len(in) < k {
				in = append(in, pick())
			}
			if rng.Intn(3) == 0 {
				// Repeat a pin, sometimes more than once.
				for r := 1 + rng.Intn(2); r > 0; r-- {
					in[rng.Intn(k)] = in[rng.Intn(k)]
				}
			}
		}
		b.Gate(name, fn, in...)
		nets = append(nets, name)
	}
	for i, q := range ffNets {
		b.DFF(q, nets[len(nets)-1-rng.Intn(gates/2)])
		if i%3 == 0 {
			b.PO(q)
		}
	}
	for i := 0; i < 8; i++ {
		b.PO(nets[len(nets)-1-rng.Intn(gates/3)])
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPushMatchesPull: the push kernel reproduces the pull pass bit for
// bit, source-order defect included, over every frame setting, register
// policy and worker count.
func TestPushMatchesPull(t *testing.T) {
	configs := []struct {
		frames, frame, words int
		drop                 bool
	}{
		{15, 0, 4, false},
		{15, 0, 4, true},
		{15, 6, 3, false},
		{2, 0, 3, true},
		{2, 1, 2, false},
		{1, 0, 2, false},
		{1, 0, 3, true},
	}
	var repeated, unreached int
	for _, c := range pushCorpus(t) {
		csr, err := c.CSR()
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < csr.N; y++ {
			if csr.Kind[y] != circuit.KindGate {
				continue
			}
			if csr.RepeatedFanin[y] {
				repeated++
			}
			for _, x := range csr.FaninOf(circuit.NodeID(y)) {
				if !odcReaches(csr, x, circuit.NodeID(y)) {
					unreached++
				}
			}
		}
		for ci, cfg := range configs {
			tr, err := sim.Run(c, sim.Config{Words: cfg.words, Frames: cfg.frames, Seed: int64(ci + 1)})
			if err != nil {
				t.Fatal(err)
			}
			base := Options{Frame: cfg.frame, DropFinalRegisters: cfg.drop}
			want, err := pullCompute(context.Background(), tr, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				opt := base
				opt.Workers = workers
				got, err := Compute(tr, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.K != want.K || got.Frame != want.Frame {
					t.Fatalf("%s %+v workers=%d: K/Frame %d/%d, want %d/%d", c.Name, cfg, workers, got.K, got.Frame, want.K, want.Frame)
				}
				for n := range want.Obs {
					if got.Obs[n] != want.Obs[n] {
						t.Fatalf("%s %+v workers=%d: obs(%s) = %v, pull pass %v",
							c.Name, cfg, workers, c.Node(circuit.NodeID(n)).Name, got.Obs[n], want.Obs[n])
					}
				}
			}
			tr.Release()
		}
	}
	// The corpus must exercise both special paths.
	if repeated == 0 || unreached == 0 {
		t.Fatalf("corpus has %d repeated-pin gates and %d source-after-reader edges; want both > 0", repeated, unreached)
	}
}

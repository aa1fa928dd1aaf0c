// Package obs computes signal observabilities of a sequential circuit by
// signature-based ODC (observability don't-care) analysis over an
// n-time-frame expanded simulation, following [17]/[21] of the paper:
//
//	obs(g) = num_ones(O(g)) / K
//
// where O(g) is the ODC mask of gate g's first-frame instance and K the
// number of simulated vectors. Registers act as wires in the expansion, so
// an error injected at g in frame 0 may surface at a primary output of any
// later frame; the mask is the union of all those observation events.
//
// The backward pass is in push form: it walks the reverse topological
// order, and when it reaches a gate, whose mask is then final, it ORs the
// gate's mask, ANDed with each input pin's flip sensitivity, into that
// fanin's mask (DESIGN.md §5.1). The pass is sharded across signature
// words (DESIGN.md §11); word columns never read each other, so the masks
// are bit-identical for every worker count. It walks the circuit's CSR
// view (DESIGN.md §15): packed fanin arrays, the cached gate order (read
// backwards) and order positions, and the trace's flat signature planes.
package obs

import (
	"context"
	"fmt"
	"slices"

	"serretime/internal/circuit"
	"serretime/internal/par"
	"serretime/internal/sim"
	"serretime/internal/telemetry"
)

// Options tunes the analysis.
type Options struct {
	// Accuracy selects the engine ComputeDesign dispatches to:
	// AccuracyExact (default) simulates and runs the ODC pass, AccuracyFast
	// runs the analytical propagation-probability estimate (pp.go). The
	// direct entry points Compute (exact) and ComputeFast (fast) ignore it.
	Accuracy Accuracy
	// Frame selects which frame's gate instances are reported (default 0,
	// giving errors the full n-frame horizon to propagate).
	Frame int
	// DropFinalRegisters, when set, treats an error still held in a
	// register after the last frame as unobserved. By default such errors
	// count as observable (they are latched and will eventually surface).
	DropFinalRegisters bool
	// Workers bounds the CPU workers sharding the ODC word columns.
	// 0 (or negative) means one worker per available CPU; 1 runs the
	// exact sequential code path. Results are identical for every value.
	Workers int
	// Recorder receives worker-pool utilization telemetry (nil: none).
	Recorder telemetry.Recorder
}

// Result holds per-node observabilities.
type Result struct {
	// Obs[node] is the observability of the node's output in [0, 1].
	Obs []float64
	// K is the number of simulated vectors (64 · words).
	K int
	// Frame is the reported frame instance.
	Frame int
}

// GateObs returns the observability of a node.
func (r *Result) GateObs(n circuit.NodeID) float64 { return r.Obs[n] }

// odcPool recycles the two ODC mask slabs (n·Words uint64 each). Both are
// cleared before use, so pooling cannot change a result.
var odcPool par.SlicePool[uint64]

// Compute runs the backward ODC propagation over the trace.
func Compute(tr *sim.Trace, opt Options) (*Result, error) {
	return ComputeCtx(context.Background(), tr, opt)
}

// ComputeCtx is Compute with cancellation: a done ctx aborts between
// shards with a guard.ErrTimeout-wrapped error.
func ComputeCtx(ctx context.Context, tr *sim.Trace, opt Options) (*Result, error) {
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

	pool := par.New("obs.compute", opt.Workers, opt.Recorder)
	var result *Result
	for f := tr.Frames - 1; f >= opt.Frame; f-- {
		clear(odcCur)
		// Push form, sharded across word columns. Every node's own
		// observation terms go in first: all ones at a PO, and at the
		// driver of each DFF the mask the flip has at the DFF's output in
		// frame f+1 (or the last-frame register policy). Then the gates
		// are walked in reverse topological order. A gate reader z
		// pushes into y only when z comes after y in that order
		// (odcReaches), so every push into y lands before the walk
		// reaches y; y's mask is final there and y pushes into its own
		// fanins. Word columns never read each other, so every worker
		// count gives the same bits.
		plane := tr.Plane(f)
		lastFrame := f == tr.Frames-1
		err := pool.Run(ctx, w, func(worker, lo, hi int) error {
			for z := 0; z < n; z++ {
				if csr.Kind[z] != circuit.KindDFF {
					continue
				}
				ybase := int(csr.Fanin[csr.FaninStart[z]]) * w
				switch {
				case !lastFrame:
					zbase := z * w
					for i := lo; i < hi; i++ {
						odcCur[ybase+i] |= odcNext[zbase+i]
					}
				case !opt.DropFinalRegisters:
					for i := lo; i < hi; i++ {
						odcCur[ybase+i] = ^uint64(0)
					}
				}
			}
			for _, y := range csr.POs {
				ybase := int(y) * w
				for i := lo; i < hi; i++ {
					odcCur[ybase+i] = ^uint64(0)
				}
			}
			var scratch [64]uint64
			buf := scratch[:0]
			for k := len(csr.GateOrder) - 1; k >= 0; k-- {
				buf = pushGate(csr, plane, odcCur, csr.GateOrder[k], w, lo, hi, buf)
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

// odcReaches reports whether gate y's final ODC mask reaches its fanin x.
//
// It reproduces a defect of the original pull-form pass, which read
// odcCur[y] while visiting x and assumed y was already final because it is
// "later in topological order". That holds for gate fanins, but not for
// sources: TopoOrder queues gates whose inputs are all PIs or DFFs in
// node-ID order, mixed in with the sources themselves, so a source x can
// sit after its reader y in Order. The pull pass then read y's still-empty
// mask and the edge contributed nothing; this predicate drops the same
// edges. Deleting it (always true) is the fix, and it changes answers
// (DESIGN.md §5.1, EXPERIMENTS.md "Known deviations").
func odcReaches(csr *circuit.CSR, x, y circuit.NodeID) bool {
	return csr.Pos[x] < csr.Pos[y]
}

// pushGate ORs sens(y,x) & odc[y] into odc[x] for every distinct fanin x of
// gate y, over words [lo, hi). sens(y,x) is the set of vectors on which
// flipping x flips y, the XOR of y's flipped and clean evaluations. For a
// pin read once it has a closed form over the other pins (the sensitivity
// table, DESIGN.md §5.1):
//
//	AND, NAND            AND of the other pins
//	OR, NOR              NOT of the OR of the other pins = AND of their NOTs
//	XOR, XNOR, BUF, NOT  all ones
//
// computed for all pins at once with prefix/suffix products. A gate that
// reads one net on several pins flips every copy, so it is re-evaluated
// exactly. buf is scratch; the possibly grown buffer is returned for the
// next call.
func pushGate(csr *circuit.CSR, plane, odc []uint64, y circuit.NodeID, w, lo, hi int, buf []uint64) []uint64 {
	ybase := int(y) * w
	my := odc[ybase+lo : ybase+hi]
	live := false
	for _, m := range my {
		live = live || m != 0
	}
	if !live {
		return buf // nothing observable to push
	}
	fanin := csr.FaninOf(y)
	if csr.RepeatedFanin[y] {
		return pushFlip(csr, plane, odc, y, w, lo, hi, buf)
	}
	switch fn := csr.Fn[y]; fn {
	case circuit.FnXor, circuit.FnXnor, circuit.FnBuf, circuit.FnNot:
		for _, x := range fanin {
			if !odcReaches(csr, x, y) {
				continue
			}
			xbase := int(x) * w
			dst := odc[xbase+lo : xbase+hi]
			for i, m := range my {
				dst[i] |= m
			}
		}
	case circuit.FnAnd, circuit.FnNand, circuit.FnOr, circuit.FnNor:
		// OR's sensitivity is the AND of the complemented other pins, so
		// one product kernel serves both families.
		var inv uint64
		if fn == circuit.FnOr || fn == circuit.FnNor {
			inv = ^uint64(0)
		}
		nw, k := hi-lo, len(fanin)
		// suf[j*nw+i] = product of pins j..k-1 in word lo+i; the last
		// row is the empty product. pre follows it as the running
		// product of pins 0..j-1.
		buf = slices.Grow(buf[:0], (k+2)*nw)[:(k+2)*nw]
		suf, pre := buf[:(k+1)*nw], buf[(k+1)*nw:]
		for i := range pre {
			pre[i] = ^uint64(0)
			suf[k*nw+i] = ^uint64(0)
		}
		for j := k - 1; j >= 0; j-- {
			xbase := int(fanin[j]) * w
			src := plane[xbase+lo : xbase+hi]
			cur, next := suf[j*nw:(j+1)*nw], suf[(j+1)*nw:(j+2)*nw]
			for i, v := range src {
				cur[i] = next[i] & (v ^ inv)
			}
		}
		for j, x := range fanin {
			xbase := int(x) * w
			if odcReaches(csr, x, y) {
				dst, rest := odc[xbase+lo:xbase+hi], suf[(j+1)*nw:(j+2)*nw]
				for i, m := range my {
					dst[i] |= pre[i] & rest[i] & m
				}
			}
			for i, v := range plane[xbase+lo : xbase+hi] {
				pre[i] &= v ^ inv
			}
		}
	}
	return buf
}

// pushFlip is pushGate for a gate with repeated pins: each distinct fanin
// x is complemented on every pin it drives and the gate re-evaluated,
// reading the clean values straight off the frame's signature plane.
func pushFlip(csr *circuit.CSR, plane, odc []uint64, y circuit.NodeID, w, lo, hi int, in []uint64) []uint64 {
	fanin := csr.FaninOf(y)
	ybase := int(y) * w
	for p, x := range fanin {
		if slices.Contains(fanin[:p], x) || !odcReaches(csr, x, y) {
			continue
		}
		xbase := int(x) * w
		for i := lo; i < hi; i++ {
			m := odc[ybase+i]
			if m == 0 {
				continue
			}
			in = in[:0]
			for _, fid := range fanin {
				v := plane[int(fid)*w+i]
				if fid == x {
					v = ^v
				}
				in = append(in, v)
			}
			odc[xbase+i] |= (csr.Fn[y].Eval(in) ^ plane[ybase+i]) & m
		}
	}
	return in
}

// Package retime implements the classic retiming substrate the paper
// builds on: Leiserson–Saxe min-period retiming (the FEAS algorithm,
// ref. [24]), a setup+hold-aware min-period retiming in the spirit of Lin &
// Zhou (ref. [23]), and the Section V initialization that produces the
// (Φ, Rmin) parameters and initial feasible retiming for MinObsWin.
package retime

import (
	"context"
	"fmt"
	"math"
	"slices"

	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/guard"
	"serretime/internal/telemetry"
)

const eps = 1e-9

// grid is the delay quantum: all delays produced by graph.TypeDelays are
// multiples of 0.5, so achievable clock periods lie on this grid and the
// binary search over periods is exact.
const grid = 0.5

// Feasible reports whether retiming r meets clock period phi with setup
// time ts: every combinational arrival time is at most phi − ts.
func Feasible(g *graph.Graph, r graph.Retiming, phi, ts float64) bool {
	if g.CheckLegal(r) != nil {
		return false
	}
	_, crit, err := g.ArrivalTimes(r)
	if err != nil {
		return false
	}
	return crit <= phi-ts+eps
}

// feasPassCap bounds the relaxation pass count. The exact Leiserson–Saxe
// bound is |V| passes, but convergence in practice tracks the logic depth;
// capping keeps infeasible probes cheap on very large graphs at the cost
// of conservatively rejecting some barely-feasible periods (the search
// then settles on a slightly larger, still-valid period).
func feasPassCap(g *graph.Graph) int {
	n := g.NumVertices() + 1
	if n > 512 {
		n = 512
	}
	return n
}

// pass is one forward timing pass: the arrival times at some retiming r
// and the zero-weight topological order the sweep computed them in, so
// labels at the same r can run on that order without sorting again. A
// zero pass (nil arr) is one that is not known.
type pass struct {
	arr   []float64
	crit  float64
	order []graph.VertexID
}

// timer runs the initialization's timing sweeps on one graph.Sweep. Every
// probe of the period searches starts its relaxations from the zero
// retiming, so the forward and reverse passes at r = 0 are computed once
// per timer, on first use, and every probe's first relaxation pass reads
// the copies. They live here rather than inside graph.Sweep, so that
// Sweep.Sweeps() still counts only passes that really ran.
type timer struct {
	sw *graph.Sweep

	fwdDone, revDone bool
	zero             pass // forward pass at r = 0
	zeroRev          []float64
	zeroErr          error // forward sweep error at r = 0
	zeroRevErr       error
}

func newTimer(sw *graph.Sweep) *timer { return &timer{sw: sw} }

// forwardZero returns the forward pass at the zero retiming.
func (t *timer) forwardZero() (pass, error) {
	if !t.fwdDone {
		t.fwdDone = true
		arr, crit, err := t.sw.Arrivals(graph.NewRetiming(t.sw.Graph()))
		if t.zeroErr = err; err == nil {
			t.zero = pass{arr: slices.Clone(arr), crit: crit, order: slices.Clone(t.sw.Order())}
		}
	}
	return t.zero, t.zeroErr
}

// reverseZero returns the reverse arrivals at the zero retiming.
func (t *timer) reverseZero() ([]float64, error) {
	if !t.revDone {
		t.revDone = true
		rarr, err := t.sw.ReverseArrivals(graph.NewRetiming(t.sw.Graph()))
		if t.zeroRevErr = err; err == nil {
			t.zeroRev = slices.Clone(rarr)
		}
	}
	return t.zeroRev, t.zeroRevErr
}

// forward sweeps r. The pass is the sweep's own, valid until its next
// forward sweep.
func (t *timer) forward(r graph.Retiming) (pass, error) {
	arr, crit, err := t.sw.Arrivals(r)
	if err != nil {
		return pass{}, err
	}
	return pass{arr: arr, crit: crit, order: t.sw.Order()}, nil
}

// FEAS runs the Leiserson–Saxe relaxation for the target period phi:
// it repeatedly increments r(v) (moving registers backward, from fanouts
// to fanins) for every vertex whose arrival time exceeds phi − ts.
//
// The host is never retimed (registers cannot move into the environment),
// so the relaxation reports failure when a violating vertex drives a
// primary output combinationally; FEASBackward covers the symmetric cases.
// Together they form a sound (always-legal) but possibly conservative
// min-period search; see MinPeriod.
func FEAS(g *graph.Graph, phi, ts float64) (graph.Retiming, bool) {
	r, _, ok, _ := feasCtx(context.Background(), newTimer(g.NewSweep()), phi, ts)
	return r, ok
}

// feasCtx is FEAS with a cancellation checkpoint per relaxation pass,
// sweeping on t. The error is non-nil only for cancellation (unwrapping
// to guard.ErrTimeout); plain infeasibility stays (nil, false, nil). On
// success it also returns the last pass, which found r feasible: the
// forward pass at r.
func feasCtx(ctx context.Context, t *timer, phi, ts float64) (graph.Retiming, pass, bool, error) {
	g := t.sw.Graph()
	r := graph.NewRetiming(g)
	limit := feasPassCap(g)
	for it := 0; it < limit; it++ {
		if cerr := guard.CheckpointIn(ctx, "retime.FEAS", telemetry.PhaseInit.String()); cerr != nil {
			return nil, pass{}, false, cerr
		}
		var fw pass
		var err error
		if it == 0 {
			fw, err = t.forwardZero()
		} else {
			fw, err = t.forward(r)
		}
		if err != nil {
			return nil, pass{}, false, nil
		}
		arr := fw.arr
		violated := false
		for v := 1; v < g.NumVertices(); v++ {
			if arr[v] <= phi-ts+eps {
				continue
			}
			// Incrementing v removes a register from each of its
			// out-edges; a zero-weight edge into the host blocks the move.
			for _, oe := range g.Out(graph.VertexID(v)) {
				if g.Edge(oe).To == graph.Host && g.WR(oe, r) == 0 {
					return nil, pass{}, false, nil
				}
			}
			r[v]++
			violated = true
		}
		if !violated {
			return r, fw, true, nil
		}
	}
	return nil, pass{}, false, nil
}

// FEASBackward is the mirror image of FEAS: it computes required times
// from the sink side and decrements r(v) (moving registers forward) for
// every vertex whose backward path exceeds phi − ts. It covers circuits
// whose critical paths end at primary outputs (where FEAS is blocked).
func FEASBackward(g *graph.Graph, phi, ts float64) (graph.Retiming, bool) {
	r, _, ok, _ := feasBackwardCtx(context.Background(), newTimer(g.NewSweep()), phi, ts)
	return r, ok
}

// feasBackwardCtx is FEASBackward on t. A success in its first pass
// returns the zero retiming, whose forward pass t already knows; it
// returns that pass then, and an unknown one otherwise.
func feasBackwardCtx(ctx context.Context, t *timer, phi, ts float64) (graph.Retiming, pass, bool, error) {
	g := t.sw.Graph()
	r := graph.NewRetiming(g)
	limit := feasPassCap(g)
	for it := 0; it < limit; it++ {
		if cerr := guard.CheckpointIn(ctx, "retime.FEASBackward", telemetry.PhaseInit.String()); cerr != nil {
			return nil, pass{}, false, cerr
		}
		var rarr []float64
		var err error
		if it == 0 {
			rarr, err = t.reverseZero()
		} else {
			rarr, err = t.sw.ReverseArrivals(r)
		}
		if err != nil {
			return nil, pass{}, false, nil
		}
		violated := false
		for v := 1; v < g.NumVertices(); v++ {
			if rarr[v] <= phi-ts+eps {
				continue
			}
			// Decrementing v removes a register from each of its
			// in-edges; a zero-weight edge from the host blocks the move.
			for _, ie := range g.In(graph.VertexID(v)) {
				if g.Edge(ie).From == graph.Host && g.WR(ie, r) == 0 {
					return nil, pass{}, false, nil
				}
			}
			r[v]--
			violated = true
		}
		if !violated {
			var fw pass
			if it == 0 && t.fwdDone {
				fw = t.zero
			}
			return r, fw, true, nil
		}
	}
	return nil, pass{}, false, nil
}

// tryPeriod attempts phi with both relaxation directions. Forward moves
// (FEASBackward) are preferred: they never pull registers out of the
// environment and tend to reduce the register count. The pass is the
// forward pass at the returned r when the relaxation knows it.
func tryPeriod(ctx context.Context, t *timer, phi, ts float64) (graph.Retiming, pass, bool, error) {
	if r, fw, ok, err := feasBackwardCtx(ctx, t, phi, ts); ok || err != nil {
		return r, fw, ok, err
	}
	return feasCtx(ctx, t, phi, ts)
}

// MinPeriod finds the smallest clock period (on the delay grid) reachable
// by the FEAS/FEASBackward relaxations and a retiming realizing it. This
// is an upper bound on the true minimum period: boundary registers pinned
// at the environment can make some periods unreachable by single-direction
// relaxation.
func MinPeriod(g *graph.Graph, ts float64) (graph.Retiming, float64, error) {
	return minPeriodCtx(context.Background(), newTimer(g.NewSweep()), ts)
}

// minPeriodCtx keeps the retiming of the last feasible probe, so the
// period the search settles on is not solved twice.
func minPeriodCtx(ctx context.Context, t *timer, ts float64) (graph.Retiming, float64, error) {
	g := t.sw.Graph()
	fw, err := t.forwardZero()
	if err != nil {
		return nil, 0, err
	}
	crit := fw.crit
	hi := snapUp(crit + ts) // the unretimed circuit achieves this
	lo := snapUp(g.MaxDelay() + ts)
	if lo > hi {
		lo = hi
	}
	// Binary search on the 0.5 grid.
	var best graph.Retiming
	for lo < hi-eps {
		mid := snapUp(lo + math.Floor((hi-lo)/(2*grid))*grid)
		r, _, ok, cerr := tryPeriod(ctx, t, mid, ts)
		if cerr != nil {
			return nil, 0, cerr
		}
		if ok {
			hi, best = mid, r
		} else {
			lo = mid + grid
		}
	}
	if best != nil {
		return best, hi, nil
	}
	r, _, ok, cerr := tryPeriod(ctx, t, hi, ts)
	if cerr != nil {
		return nil, 0, cerr
	}
	if !ok {
		return graph.NewRetiming(g), snapUp(crit + ts), nil
	}
	return r, hi, nil
}

func snapUp(x float64) float64 { return math.Ceil(x/grid-eps) * grid }

// SetupHold attempts a retiming meeting period phi under both setup (ts)
// and hold (th) constraints: every register-launched longest path fits in
// phi − ts and every register-launched shortest path is at least th.
// It starts from a setup-feasible min-period solution and alternates hold
// repairs (moving a short-path register backward or forward across a
// gate) with FEAS-style setup re-repairs; it can fail on reconvergent
// structures, in which case ok is false (the caller falls back to
// MinPeriod, as the paper prescribes).
func SetupHold(g *graph.Graph, phi, ts, th float64) (graph.Retiming, bool) {
	r, ok, _ := setupHoldCtx(context.Background(), newTimer(g.NewSweep()), phi, ts, th, telemetry.Nop)
	return r, ok
}

// setupHoldCtx alternates setup checks and hold repairs. A setup check
// at an r the relaxation has just found feasible reuses the relaxation's
// last pass instead of sweeping r again, and the labels of the hold check
// run on the order of the setup check's pass, at the same r.
func setupHoldCtx(ctx context.Context, t *timer, phi, ts, th float64, rec telemetry.Recorder) (graph.Retiming, bool, error) {
	g := t.sw.Graph()
	r, fw, ok, cerr := tryPeriod(ctx, t, phi, ts)
	if cerr != nil {
		return nil, false, cerr
	}
	if !ok {
		return nil, false, nil
	}
	p := elw.Params{Phi: phi, Ts: ts, Th: th}
	limit := 4*feasPassCap(g) + 16
	bestHold, stall := 1<<30, 0
	for it := 0; it < limit; it++ {
		if cerr := guard.CheckpointIn(ctx, "retime.SetupHold", telemetry.PhaseInit.String()); cerr != nil {
			return nil, false, cerr
		}
		if fw.arr == nil {
			var err error
			if fw, err = t.forward(r); err != nil {
				return nil, false, nil
			}
		}
		arr := fw.arr
		violated := false
		for v := 1; v < g.NumVertices(); v++ {
			if arr[v] > phi-ts+eps {
				// Hold repairs may have recreated a long path; splitting
				// it needs a register from v's out-edges (blocked at the
				// environment).
				for _, oe := range g.Out(graph.VertexID(v)) {
					if g.Edge(oe).To == graph.Host && g.WR(oe, r) == 0 {
						return nil, false, nil
					}
				}
				r[v]++
				violated = true
			}
		}
		if violated {
			fw = pass{}
			continue
		}
		lab, err := elw.ComputeLabelsInOrder(g, r, fw.order, p, rec)
		fw = pass{} // the repairs below move r
		if err != nil {
			return nil, false, nil
		}
		// Batch: repair every currently-violated edge in one pass (labels
		// go stale as repairs move registers, but the loop re-verifies).
		repaired, holdV := 0, 0
		for i := 0; i < g.NumEdges(); i++ {
			eid := graph.EdgeID(i)
			e := g.Edge(eid)
			if e.To == graph.Host || g.WR(eid, r) <= 0 || !lab.HasWindow[e.To] {
				continue
			}
			if lab.HoldSlack(g, p, eid) >= th-eps {
				continue
			}
			holdV++
			if holdRepair(g, r, eid) {
				repaired++
			}
		}
		if holdV == 0 {
			if g.CheckLegal(r) != nil {
				return nil, false, nil
			}
			return r, true, nil
		}
		if repaired == 0 {
			return nil, false, nil
		}
		// Stall detection: repairs that never reduce the violation count
		// are cycling (clustered registers with nowhere to go).
		if holdV < bestHold {
			bestHold, stall = holdV, 0
		} else if stall++; stall > 50 {
			return nil, false, nil
		}
	}
	return nil, false, nil
}

// holdRepair lengthens the short register-launched path on edge eid by
// moving a register forward across the sink gate (spreading clustered
// registers into later logic), or, failing that, backward across the
// source. Reports whether a legal move was found.
func holdRepair(g *graph.Graph, r graph.Retiming, eid graph.EdgeID) bool {
	e := g.Edge(eid)
	// Forward across the sink: legal iff every in-edge of To keeps
	// w_r >= 0 after r(To)--.
	if e.To != graph.Host {
		ok := true
		for _, ie := range g.In(e.To) {
			if g.WR(ie, r) < 1 {
				ok = false
				break
			}
		}
		if ok {
			r[e.To]--
			return true
		}
	}
	// Backward across the source: legal iff every out-edge of From keeps
	// w_r >= 0 after r(From)++.
	if e.From != graph.Host {
		ok := true
		for _, oe := range g.Out(e.From) {
			if g.WR(oe, r) < 1 {
				ok = false
				break
			}
		}
		if ok {
			r[e.From]++
			return true
		}
	}
	return false
}

// MinPeriodSetupHold finds the smallest period (on the delay grid) for
// which SetupHold succeeds.
func MinPeriodSetupHold(g *graph.Graph, ts, th float64) (graph.Retiming, float64, bool) {
	r, phi, ok, _ := minPeriodSetupHoldCtx(context.Background(), newTimer(g.NewSweep()), ts, th, telemetry.Nop)
	return r, phi, ok
}

// minPeriodSetupHoldCtx keeps the retiming of the last successful probe:
// SetupHold is deterministic, so re-solving the final period would only
// reproduce it.
func minPeriodSetupHoldCtx(ctx context.Context, t *timer, ts, th float64, rec telemetry.Recorder) (graph.Retiming, float64, bool, error) {
	g := t.sw.Graph()
	fw, err := t.forwardZero()
	if err != nil {
		return nil, 0, false, nil
	}
	crit := fw.crit
	lo := snapUp(g.MaxDelay() + ts)
	hi := snapUp(crit + ts)
	if lo > hi {
		lo = hi
	}
	best, ok, cerr := setupHoldCtx(ctx, t, hi, ts, th, rec)
	if cerr != nil {
		return nil, 0, false, cerr
	}
	if !ok {
		// Try some slack above the unretimed critical path before giving
		// up: hold repairs may need headroom.
		hi2 := snapUp(hi * 1.5)
		if best, ok, cerr = setupHoldCtx(ctx, t, hi2, ts, th, rec); cerr != nil {
			return nil, 0, false, cerr
		} else if !ok {
			return nil, 0, false, nil
		}
		lo, hi = hi+grid, hi2
	}
	for lo < hi-eps {
		mid := snapUp(lo + math.Floor((hi-lo)/(2*grid))*grid)
		r, ok, cerr := setupHoldCtx(ctx, t, mid, ts, th, rec)
		if cerr != nil {
			return nil, 0, false, cerr
		}
		if ok {
			hi, best = mid, r
		} else {
			lo = mid + grid
		}
	}
	return best, hi, true, nil
}

// Options configures Initialize.
type Options struct {
	// Ts and Th are the setup and hold times (paper: 0 and 2).
	Ts, Th float64
	// Epsilon is the relaxation applied to the minimal period (paper: 0.10).
	Epsilon float64
	// Recorder receives the initialization's telemetry: one init span over
	// the whole Section V computation plus the elw-recompute spans of the
	// hold-repair loops. nil records nothing.
	Recorder telemetry.Recorder
	// Workers is threaded uniformly through the pipeline's option structs
	// (see serretime.RetimeOptions.Workers). The Section V initialization
	// has no parallel section today — its min-period binary search and
	// hold-repair loops are inherently sequential — so the field is
	// reserved: accepted, ignored, and guaranteed not to change results.
	Workers int
}

// DefaultOptions matches Section V / VI of the paper.
func DefaultOptions() Options { return Options{Ts: 0, Th: 2, Epsilon: 0.10} }

// Init is the starting point Section V hands to MinObsWin.
type Init struct {
	// R is the initial feasible retiming of the input graph.
	R graph.Retiming
	// Phi is the relaxed clock period (1+ε)·Φmin.
	Phi float64
	// PhiMin is the minimal period found before relaxation.
	PhiMin float64
	// Rmin is the shortest-path bound for P2'.
	Rmin float64
	// SetupHoldOK records whether the setup+hold retiming succeeded; when
	// false, the paper's fallback was used: plain min-period retiming and
	// Rmin equal to the minimal gate delay (P2' then never binds).
	SetupHoldOK bool
	// Labels are the L/R boundary labels of (g, R) at the relaxed period
	// Phi, computed as a by-product of the Rmin selection. Because
	// graph.Rebase preserves vertex/edge identities and w_r, they are
	// bit-valid for the rebased graph at the zero retiming, where they
	// seed the solver state (core.Options.SeedLabels) so the optimizer's
	// first tentative move patches instead of recomputing. nil when the
	// setup+hold initialization fell back (SetupHoldOK false).
	Labels *elw.Labels
}

// Initialize computes the initial retiming, relaxed clock period Φ and
// shortest-path bound Rmin per Section V of the paper.
func Initialize(g *graph.Graph, o Options) (*Init, error) {
	return InitializeCtx(context.Background(), g, o)
}

// InitializeCtx is Initialize under cooperative cancellation: the
// min-period searches and hold-repair loops check ctx and abort with an
// error unwrapping to guard.ErrTimeout once it is done.
func InitializeCtx(ctx context.Context, g *graph.Graph, o Options) (*Init, error) {
	rec := telemetry.OrNop(o.Recorder)
	rec.SpanStart(telemetry.PhaseInit)
	sw := g.NewSweep()
	init, err := initializeCtx(ctx, newTimer(sw), o, rec)
	rec.Count(telemetry.CounterInitSweeps, int64(sw.Sweeps()))
	rec.SpanEnd(telemetry.PhaseInit, err)
	return init, err
}

// initializeCtx runs both period searches on one timer, so the setup+hold
// search and the min-period fallback share the passes at r = 0.
func initializeCtx(ctx context.Context, t *timer, o Options, rec telemetry.Recorder) (*Init, error) {
	g := t.sw.Graph()
	if o.Epsilon < 0 {
		return nil, fmt.Errorf("retime: negative epsilon %g", o.Epsilon)
	}
	init := &Init{}
	r, phi, ok, cerr := minPeriodSetupHoldCtx(ctx, t, o.Ts, o.Th, rec)
	if cerr != nil {
		return nil, cerr
	}
	if ok {
		init.R = r
		init.PhiMin = phi
		init.SetupHoldOK = true
		init.Phi = snapUp(phi * (1 + o.Epsilon))
		// Rmin: the minimal register-launched shortest path of the
		// initialized circuit (independent of Φ).
		p := elw.Params{Phi: init.Phi, Ts: o.Ts, Th: o.Th}
		order, err := t.sw.Topo(r)
		if err != nil {
			return nil, err
		}
		lab, err := elw.ComputeLabelsInOrder(g, r, order, p, rec)
		if err != nil {
			return nil, err
		}
		if slack, found := lab.MinHoldSlack(g, r, p); found {
			init.Rmin = slack
		} else {
			init.Rmin = g.MinDelay()
		}
		init.Labels = lab
		return init, nil
	}
	r, phi, err := minPeriodCtx(ctx, t, o.Ts)
	if err != nil {
		return nil, err
	}
	init.R = r
	init.PhiMin = phi
	init.SetupHoldOK = false
	init.Phi = snapUp(phi * (1 + o.Epsilon))
	init.Rmin = g.MinDelay()
	return init, nil
}

package retime

// The Section V search as it was before the zero-retiming passes were
// shared across probes and the hold loop reused the relaxation's last
// pass, kept verbatim (renamed with a legacy prefix) as the reference of
// TestInitializeMatchesLegacy.

import (
	"context"
	"fmt"
	"math"

	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/guard"
	"serretime/internal/telemetry"
)

// legacyFeasCtx is FEAS with a cancellation checkpoint per relaxation pass,
// sweeping on sw's buffers. The error is non-nil only for cancellation
// (unwrapping to guard.ErrTimeout); plain infeasibility stays
// (nil, false, nil).
func legacyFeasCtx(ctx context.Context, sw *graph.Sweep, phi, ts float64) (graph.Retiming, bool, error) {
	g := sw.Graph()
	r := graph.NewRetiming(g)
	limit := feasPassCap(g)
	for it := 0; it < limit; it++ {
		if cerr := guard.CheckpointIn(ctx, "retime.FEAS", telemetry.PhaseInit.String()); cerr != nil {
			return nil, false, cerr
		}
		arr, _, err := sw.Arrivals(r)
		if err != nil {
			return nil, false, nil
		}
		violated := false
		for v := 1; v < g.NumVertices(); v++ {
			if arr[v] <= phi-ts+eps {
				continue
			}
			// Incrementing v removes a register from each of its
			// out-edges; a zero-weight edge into the host blocks the move.
			for _, oe := range g.Out(graph.VertexID(v)) {
				if g.Edge(oe).To == graph.Host && g.WR(oe, r) == 0 {
					return nil, false, nil
				}
			}
			r[v]++
			violated = true
		}
		if !violated {
			return r, true, nil
		}
	}
	return nil, false, nil
}

func legacyFeasBackwardCtx(ctx context.Context, sw *graph.Sweep, phi, ts float64) (graph.Retiming, bool, error) {
	g := sw.Graph()
	r := graph.NewRetiming(g)
	limit := feasPassCap(g)
	for it := 0; it < limit; it++ {
		if cerr := guard.CheckpointIn(ctx, "retime.FEASBackward", telemetry.PhaseInit.String()); cerr != nil {
			return nil, false, cerr
		}
		rarr, err := sw.ReverseArrivals(r)
		if err != nil {
			return nil, false, nil
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
					return nil, false, nil
				}
			}
			r[v]--
			violated = true
		}
		if !violated {
			return r, true, nil
		}
	}
	return nil, false, nil
}

// legacyTryPeriod attempts phi with both relaxation directions. Forward moves
// (FEASBackward) are preferred: they never pull registers out of the
// environment and tend to reduce the register count.
func legacyTryPeriod(ctx context.Context, sw *graph.Sweep, phi, ts float64) (graph.Retiming, bool, error) {
	if r, ok, err := legacyFeasBackwardCtx(ctx, sw, phi, ts); ok || err != nil {
		return r, ok, err
	}
	return legacyFeasCtx(ctx, sw, phi, ts)
}

// legacyMinPeriodCtx keeps the retiming of the last feasible probe, so the
// period the search settles on is not solved twice.
func legacyMinPeriodCtx(ctx context.Context, sw *graph.Sweep, ts float64) (graph.Retiming, float64, error) {
	g := sw.Graph()
	_, crit, err := sw.Arrivals(graph.NewRetiming(g))
	if err != nil {
		return nil, 0, err
	}
	hi := snapUp(crit + ts) // the unretimed circuit achieves this
	lo := snapUp(g.MaxDelay() + ts)
	if lo > hi {
		lo = hi
	}
	// Binary search on the 0.5 grid.
	var best graph.Retiming
	for lo < hi-eps {
		mid := snapUp(lo + math.Floor((hi-lo)/(2*grid))*grid)
		r, ok, cerr := legacyTryPeriod(ctx, sw, mid, ts)
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
	r, ok, cerr := legacyTryPeriod(ctx, sw, hi, ts)
	if cerr != nil {
		return nil, 0, cerr
	}
	if !ok {
		return graph.NewRetiming(g), snapUp(crit + ts), nil
	}
	return r, hi, nil
}

func legacySetupHoldCtx(ctx context.Context, sw *graph.Sweep, phi, ts, th float64, rec telemetry.Recorder) (graph.Retiming, bool, error) {
	g := sw.Graph()
	r, ok, cerr := legacyTryPeriod(ctx, sw, phi, ts)
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
		arr, _, err := sw.Arrivals(r)
		if err != nil {
			return nil, false, nil
		}
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
			continue
		}
		lab, err := legacyComputeLabelsRec(g, r, p, rec)
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

// legacyMinPeriodSetupHoldCtx keeps the retiming of the last successful probe:
// SetupHold is deterministic, so re-solving the final period would only
// reproduce it.
func legacyMinPeriodSetupHoldCtx(ctx context.Context, sw *graph.Sweep, ts, th float64, rec telemetry.Recorder) (graph.Retiming, float64, bool, error) {
	g := sw.Graph()
	_, crit, err := sw.Arrivals(graph.NewRetiming(g))
	if err != nil {
		return nil, 0, false, nil
	}
	lo := snapUp(g.MaxDelay() + ts)
	hi := snapUp(crit + ts)
	if lo > hi {
		lo = hi
	}
	best, ok, cerr := legacySetupHoldCtx(ctx, sw, hi, ts, th, rec)
	if cerr != nil {
		return nil, 0, false, cerr
	}
	if !ok {
		// Try some slack above the unretimed critical path before giving
		// up: hold repairs may need headroom.
		hi2 := snapUp(hi * 1.5)
		if best, ok, cerr = legacySetupHoldCtx(ctx, sw, hi2, ts, th, rec); cerr != nil {
			return nil, 0, false, cerr
		} else if !ok {
			return nil, 0, false, nil
		}
		lo, hi = hi+grid, hi2
	}
	for lo < hi-eps {
		mid := snapUp(lo + math.Floor((hi-lo)/(2*grid))*grid)
		r, ok, cerr := legacySetupHoldCtx(ctx, sw, mid, ts, th, rec)
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

func legacyInitializeCtx(ctx context.Context, sw *graph.Sweep, o Options, rec telemetry.Recorder) (*Init, error) {
	g := sw.Graph()
	if o.Epsilon < 0 {
		return nil, fmt.Errorf("retime: negative epsilon %g", o.Epsilon)
	}
	init := &Init{}
	r, phi, ok, cerr := legacyMinPeriodSetupHoldCtx(ctx, sw, o.Ts, o.Th, rec)
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
		lab, err := legacyComputeLabelsRec(g, r, p, rec)
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
	r, phi, err := legacyMinPeriodCtx(ctx, sw, o.Ts)
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

// legacyComputeLabelsRec is elw.ComputeLabelsRec, which the legacy
// search called: the labels on their own sort, recorded as one
// elw-recompute span.
func legacyComputeLabelsRec(g *graph.Graph, r graph.Retiming, p elw.Params, rec telemetry.Recorder) (*elw.Labels, error) {
	rec = telemetry.OrNop(rec)
	rec.SpanStart(telemetry.PhaseELWRecompute)
	rec.Count(telemetry.CounterELWRecomputes, 1)
	lab, err := elw.ComputeLabels(g, r, p)
	rec.SpanEnd(telemetry.PhaseELWRecompute, err)
	return lab, err
}

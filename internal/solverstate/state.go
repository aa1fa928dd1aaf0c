// Package solverstate maintains the transactional incremental state of
// the MinObsWin solver loop (Algorithm 1): the retiming vector, the
// retimed edge weights w_r, the L/R boundary labels of eq. (6), and the
// register-observability objective, all kept consistent under a tentative
// move set I with commit/rollback semantics. A discovery cascade keeps one
// transaction open and retargets it from one tentative set to the next,
// paying only for the vertices whose move changed.
//
// The paper's algorithm is explicitly incremental — every iteration moves
// one closed set and re-checks P0/P1'/P2' — but a naive implementation
// rebuilds the full label vectors per tentative move. State instead
// patches only the dirty region: the vertices whose zero-weight fanout
// cones intersect the reclassified edges of the move. The patch runs the
// same per-vertex kernel as the full recompute (elw.RelabelVertex) over
// the region in successors-first order, so patched labels are
// bit-identical to a from-scratch computation; elw.ComputeLabels remains
// the oracle and can be cross-checked after every patch (Config.
// CheckLabels) for a debug mode that turns any divergence into an error.
//
// Exactness of the dirty region: a vertex u outside the region has (a)
// every out-edge classification (registered vs combinational) unchanged,
// and (b) by induction on reverse topological depth of the tentative
// zero-weight DAG, every successor it reads labels from outside the
// region as well — so RelabelVertex at u would reproduce u's old labels
// exactly. The zero-weight subgraph is a DAG under *any* retiming, legal
// or not (cycle register counts telescope), so the induction is sound
// even mid-move. The only hazard is an edge with w_r < 0: the oracle
// treats it like a combinational edge but the zero-weight sort does not
// order it, making the oracle's result depend on its traversal order. State
// therefore falls back to the oracle itself (a full recompute) whenever a
// changed non-host edge goes negative, and similarly when the dirty
// region exceeds Config.DirtyThreshold of the gates — both fallbacks are
// counted and the dirty fraction is gauged through telemetry.
package solverstate

import (
	"errors"
	"fmt"
	"slices"

	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/guard"
	"serretime/internal/telemetry"
)

// DefaultDirtyThreshold is the dirty-region fraction (of the gate count)
// above which patching falls back to a full recompute. A patch at
// fraction f does ~f of the sweep's relabel work plus region collection
// and undo logging, but skips the sweep's allocation and global Kahn
// ordering, so it stays profitable well past f = 1/4; past half the
// circuit the bookkeeping overtakes the savings.
const DefaultDirtyThreshold = 0.5

// dirtyFloor is the region size (in vertices) below which patching is
// always worthwhile regardless of the fraction it represents: on tiny
// circuits every region is a large fraction, yet the absolute work is
// negligible next to a full sweep's allocation. The floor applies only
// with the default threshold, so tests can still force the threshold
// fallback on small graphs via Config.DirtyThreshold.
const dirtyFloor = 64

// ErrLabelMismatch is the sentinel behind MismatchError: the incremental
// labels diverged from the elw.ComputeLabels oracle. It indicates a bug
// in the dirty-region machinery, never a property of the input.
var ErrLabelMismatch = errors.New("solverstate: incremental labels diverge from oracle")

// MismatchError reports the first vertex at which the incremental labels
// and the oracle disagree. It unwraps to both ErrLabelMismatch and
// guard.ErrInternal, so the degradation chain treats it as an internal
// fault while callers (serbench -checklabels) can still identify it.
type MismatchError struct {
	Vertex        graph.VertexID
	Name          string
	GotL, WantL   float64
	GotR, WantR   float64
	GotHW, WantHW bool
	GotLT, WantLT graph.VertexID
	GotRT, WantRT graph.VertexID
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("solverstate: label mismatch at %s (v%d): got L=%g R=%g hw=%v LT=%d RT=%d, oracle L=%g R=%g hw=%v LT=%d RT=%d",
		e.Name, e.Vertex, e.GotL, e.GotR, e.GotHW, e.GotLT, e.GotRT,
		e.WantL, e.WantR, e.WantHW, e.WantLT, e.WantRT)
}

// Unwrap exposes both sentinels.
func (e *MismatchError) Unwrap() []error { return []error{ErrLabelMismatch, guard.ErrInternal} }

// Config parameterizes New.
type Config struct {
	// Params are the timing parameters of the L/R labels.
	Params elw.Params
	// ObsInt is the per-edge integer observability (the objective weight
	// of each register), as produced by core.Gains.
	ObsInt []int64
	// SeedLabels, when non-nil, primes the committed labels so the first
	// transaction can patch instead of paying a full recompute. They must
	// equal elw.ComputeLabels of the initial state (State clones them; the
	// caller's copy is never written). The Section V initialization
	// already computes exactly these labels when selecting Rmin.
	SeedLabels *elw.Labels
	// CheckLabels cross-checks every incremental patch against the oracle
	// and fails the transaction with a MismatchError on divergence.
	CheckLabels bool
	// FullRecompute disables dirty-region patching: every label request
	// inside a transaction recomputes from scratch (the pre-refactor
	// behavior, kept for ablation benchmarks).
	FullRecompute bool
	// DirtyThreshold overrides DefaultDirtyThreshold when > 0: the dirty
	// fraction of the gate count above which patching falls back to a
	// full recompute.
	DirtyThreshold float64
	// Recorder receives label-patch spans, patch/full/fallback counters
	// and the dirty-fraction gauge. nil records nothing.
	Recorder telemetry.Recorder
}

// labUndo snapshots one vertex's labels before a patch overwrites them.
type labUndo struct {
	v      graph.VertexID
	l, r   float64
	lt, rt graph.VertexID
	has    bool
}

// edgeUndo records the committed weight of an edge the open transaction
// changed.
type edgeUndo struct {
	e  graph.EdgeID
	wr int32
}

// labState says what the current transaction did to the labels.
type labState uint8

const (
	labNone    labState = iota // untouched this transaction
	labPatched                 // dirty-region patch, reversible via undo
	labFull                    // full recompute, previous labels in labPrev
)

// State is the transactional solver state. All methods must be called
// from one goroutine.
type State struct {
	g   *graph.Graph
	cfg Config
	rec telemetry.Recorder

	r   graph.Retiming // current retiming (tentative while open)
	wr  []int32        // current w_r per edge (tentative while open)
	obj int64          // committed objective Σ obsInt·w_r

	// vertexObsDelta[v] = Σ_in obsInt − Σ_out obsInt: moving v forward by
	// one register changes the objective by −vertexObsDelta[v], so a move
	// delta(v) (negative) contributes delta(v)·vertexObsDelta[v].
	vertexObsDelta []int64

	open    bool
	objTent int64
	moved   []graph.VertexID // vertices with delta != 0
	next    []graph.VertexID // Retarget's build buffer for the next moved list
	changed []graph.VertexID // vertices whose delta the last diff changed
	delta   []int32          // tentative per-vertex move, 0 outside I

	vertexMark []uint32 // epoch stamps of the members being applied
	edgeMark   []uint32 // epoch stamps deduplicating incident edges
	epoch      uint32
	edgeTxn    []uint32 // txn stamps: the edge has an undo entry this transaction
	txn        uint32
	// edgeUndos holds one entry per edge changed during the transaction,
	// logged at its first change, so wr is the committed weight.
	edgeUndos []edgeUndo

	seeds    []graph.VertexID // Labels' buffer: sources of reclassified edges
	negEdges []graph.EdgeID   // edges with tentative w_r < 0, sorted
	negNext  []graph.EdgeID   // retarget's merge buffer for negEdges

	lab      *elw.Labels
	labMode  labState
	labPrev  *elw.Labels // committed labels saved across an in-txn full recompute
	labUndos []labUndo
	walker   *graph.RegionWalker
	sweep    *graph.Sweep // zero-weight order of the full recomputes, built on first use

	// defaultThreshold records that cfg.DirtyThreshold was defaulted, which
	// enables the dirtyFloor on tiny circuits.
	defaultThreshold bool
}

// New builds a State for g at retiming r0 (cloned). r0 must be P0-legal:
// the incremental P0 check relies on every committed state having
// non-negative weights, so tentative negatives can only sit on edges the
// move changed.
func New(g *graph.Graph, r0 graph.Retiming, cfg Config) (*State, error) {
	if len(cfg.ObsInt) != g.NumEdges() {
		return nil, fmt.Errorf("solverstate: obsInt length %d, want %d", len(cfg.ObsInt), g.NumEdges())
	}
	if err := g.CheckLegal(r0); err != nil {
		return nil, fmt.Errorf("solverstate: illegal initial retiming: %w", err)
	}
	defaultThreshold := cfg.DirtyThreshold <= 0
	if defaultThreshold {
		cfg.DirtyThreshold = DefaultDirtyThreshold
	}
	s := &State{
		g:              g,
		cfg:            cfg,
		rec:            telemetry.OrNop(cfg.Recorder),
		r:              r0.Clone(),
		wr:             g.EdgeWeights(r0),
		vertexObsDelta: make([]int64, g.NumVertices()),
		delta:          make([]int32, g.NumVertices()),
		vertexMark:     make([]uint32, g.NumVertices()),
		edgeMark:       make([]uint32, g.NumEdges()),
		edgeTxn:        make([]uint32, g.NumEdges()),
		walker:         graph.NewRegionWalker(g),

		defaultThreshold: defaultThreshold,
	}
	for e := 0; e < g.NumEdges(); e++ {
		eid := graph.EdgeID(e)
		s.obj += cfg.ObsInt[e] * int64(s.wr[e])
		s.vertexObsDelta[g.EdgeTo(eid)] += cfg.ObsInt[e]
		s.vertexObsDelta[g.EdgeFrom(eid)] -= cfg.ObsInt[e]
	}
	s.objTent = s.obj
	if cfg.SeedLabels != nil {
		s.lab = cfg.SeedLabels.Clone()
	}
	return s, nil
}

// Graph returns the underlying graph.
func (s *State) Graph() *graph.Graph { return s.g }

// Open reports whether a transaction is in progress.
func (s *State) Open() bool { return s.open }

// R returns the committed retiming. The transaction must be closed; the
// caller must not modify the slice (copy it to keep it).
func (s *State) R() graph.Retiming {
	if s.open {
		panic("solverstate: R with open transaction")
	}
	return s.r
}

// WR returns the current (tentative while open) retimed weight of e.
func (s *State) WR(e graph.EdgeID) int32 { return s.wr[e] }

// EdgeWeights returns the current per-edge weights, indexed by EdgeID.
// The slice is live — it changes with Begin/Retarget/Commit/Rollback —
// and must not be modified.
func (s *State) EdgeWeights() []int32 { return s.wr }

// Objective returns Σ obsInt·w_r of the current (tentative) state.
func (s *State) Objective() int64 { return s.objTent }

// CommittedObjective returns the objective of the last committed state.
func (s *State) CommittedObjective() int64 { return s.obj }

// NegativeTentativeEdges returns the edges with tentative w_r < 0, in
// ascending EdgeID order — the same sequence a full P0 scan would report,
// since the committed state is legal and negatives can only appear on
// edges the open move changed. Empty when no transaction is open.
func (s *State) NegativeTentativeEdges() []graph.EdgeID { return s.negEdges }

// Begin opens a transaction moving each vertex of members forward by
// weight(v) registers: r(v) -= weight(v). It updates the edge weights and
// objective immediately; the label patch is lazy (Labels), so the P0-only
// path never touches labels. Begin is Retarget from the empty move.
func (s *State) Begin(members []int32, weight func(v int32) int32) {
	if s.open {
		panic("solverstate: Begin with open transaction")
	}
	s.open = true
	if s.txn++; s.txn == 0 {
		clear(s.edgeTxn)
		s.txn = 1
	}
	s.retarget(members, weight)
}

// Retarget moves the open transaction to a new tentative set: afterwards
// the state equals Rollback followed by Begin(members, weight), but only
// the vertices whose tentative move changed, and their incident edges,
// are touched. Labels patched or recomputed for the previous set are
// restored to the committed ones first.
func (s *State) Retarget(members []int32, weight func(v int32) int32) {
	if !s.open {
		panic("solverstate: Retarget without transaction")
	}
	s.restoreLabels()
	s.retarget(members, weight)
}

// retarget is the one diff routine behind Begin and Retarget. It stamps
// the new members, applies every changed per-vertex move to r and the
// objective, then recomputes w_r on the incident edges of the changed
// vertices and keeps the sorted negative-edge list current.
func (s *State) retarget(members []int32, weight func(v int32) int32) {
	if s.epoch++; s.epoch == 0 {
		clear(s.vertexMark)
		clear(s.edgeMark)
		s.epoch = 1
	}
	s.changed = s.changed[:0]
	next := s.next[:0]
	for _, m := range members {
		v := graph.VertexID(m)
		d := weight(m)
		if d == 0 || v == graph.Host || s.vertexMark[v] == s.epoch {
			continue
		}
		s.vertexMark[v] = s.epoch
		next = append(next, v)
		s.setDelta(v, -d)
	}
	for _, v := range s.moved {
		if s.vertexMark[v] != s.epoch {
			s.setDelta(v, 0) // left the set
		}
	}
	s.moved, s.next = next, s.moved
	s.rec.Count(telemetry.CounterMoveVertices, int64(len(s.changed)))

	kept, dropped := len(s.negEdges), false
	for _, v := range s.changed {
		for _, dir := range [2][]graph.EdgeID{s.g.Out(v), s.g.In(v)} {
			for _, eid := range dir {
				if s.edgeMark[eid] == s.epoch {
					continue
				}
				s.edgeMark[eid] = s.epoch
				wrOld := s.wr[eid]
				wrNew := s.g.EdgeW(eid) + s.r[s.g.EdgeTo(eid)] - s.r[s.g.EdgeFrom(eid)]
				if wrNew == wrOld {
					continue
				}
				if s.edgeTxn[eid] != s.txn {
					s.edgeTxn[eid] = s.txn
					s.edgeUndos = append(s.edgeUndos, edgeUndo{e: eid, wr: wrOld})
				}
				s.wr[eid] = wrNew
				if wrNew < 0 && wrOld >= 0 {
					s.negEdges = append(s.negEdges, eid)
				} else if wrOld < 0 && wrNew >= 0 {
					dropped = true
				}
			}
		}
	}
	if dropped || kept < len(s.negEdges) {
		s.mergeNegatives(kept)
	}
}

// mergeNegatives rebuilds the sorted negative-edge list from its sorted
// prefix negEdges[:kept] (the previous list, minus the edges no longer
// negative) and the newly negative edges appended after it.
func (s *State) mergeNegatives(kept int) {
	old, added := s.negEdges[:kept], s.negEdges[kept:]
	slices.Sort(added)
	out := s.negNext[:0]
	for _, e := range old {
		if s.wr[e] >= 0 {
			continue
		}
		for len(added) > 0 && added[0] < e {
			out = append(out, added[0])
			added = added[1:]
		}
		out = append(out, e)
	}
	out = append(out, added...)
	s.negEdges, s.negNext = out, s.negEdges
}

// setDelta changes v's tentative move to nd, updating r and the
// objective, and records v as changed.
func (s *State) setDelta(v graph.VertexID, nd int32) {
	od := s.delta[v]
	if nd == od {
		return
	}
	s.delta[v] = nd
	s.r[v] += nd - od
	s.objTent += int64(nd-od) * s.vertexObsDelta[v]
	s.changed = append(s.changed, v)
}

// labelSeeds derives the label patch's inputs from the undo log by
// comparing each changed edge's committed weight with its current one:
// the sources of non-host edges whose classification (w_r > 0 or not)
// flipped, and whether some changed non-host edge is negative. Edges a
// retarget moved back to their committed weight are unchanged.
func (s *State) labelSeeds() (seeds []graph.VertexID, neg bool) {
	seeds = s.seeds[:0]
	for _, u := range s.edgeUndos {
		wrNew := s.wr[u.e]
		if wrNew == u.wr {
			continue
		}
		eFrom, eTo := s.g.EdgeFrom(u.e), s.g.EdgeTo(u.e)
		if eFrom == graph.Host || eTo == graph.Host {
			// Host-incident edges never affect labels: edges into the host
			// are registered regardless of weight, edges out of it are
			// never read (the host has no labels).
			continue
		}
		if wrNew < 0 {
			neg = true
		}
		if (u.wr > 0) != (wrNew > 0) {
			seeds = append(seeds, eFrom)
		}
	}
	s.seeds = seeds
	return seeds, neg
}

// weightsChanged reports whether some edge differs from its committed
// weight.
func (s *State) weightsChanged() bool {
	for _, u := range s.edgeUndos {
		if s.wr[u.e] != u.wr {
			return true
		}
	}
	return false
}

// Labels returns the L/R labels of the current (tentative) state,
// patching the dirty region incrementally when possible and falling back
// to a full recompute when the region is too large, a changed edge went
// negative, or Config.FullRecompute is set. With Config.CheckLabels the
// patched labels are verified against the oracle before being returned.
func (s *State) Labels() (*elw.Labels, error) {
	guard.Failpoint("solverstate.Labels")
	if !s.open {
		if s.lab == nil {
			lab, err := s.fullRecompute()
			if err != nil {
				return nil, err
			}
			s.lab = lab
		}
		return s.lab, nil
	}
	if s.labMode != labNone {
		return s.lab, nil
	}
	if s.lab == nil {
		// No committed labels to patch from: the full computation on the
		// tentative state is the oracle itself.
		lab, err := s.fullRecompute()
		if err != nil {
			return nil, err
		}
		s.lab, s.labMode = lab, labFull
		return s.lab, nil
	}
	if s.cfg.FullRecompute {
		return s.fallbackFull()
	}
	seeds, neg := s.labelSeeds()
	if neg {
		s.rec.Count(telemetry.CounterLabelFallbacksNegative, 1)
		return s.fallbackFull()
	}
	gates := s.g.NumGates()
	limit := int(s.cfg.DirtyThreshold * float64(gates))
	if s.defaultThreshold && limit < dirtyFloor {
		limit = dirtyFloor
	}
	if limit < 1 {
		limit = 1
	}
	if !s.walker.Collect(s.wr, seeds, limit) {
		s.rec.Count(telemetry.CounterLabelFallbacksThreshold, 1)
		s.rec.Gauge(telemetry.GaugeDirtyFraction, permille(limit+1, gates))
		if s.rec != telemetry.Nop {
			s.rec.Gauge(telemetry.GaugeThresholdRegion, permille(s.walker.Finish(s.wr), gates))
		}
		return s.fallbackFull()
	}
	s.rec.SpanStart(telemetry.PhaseLabelPatch)
	s.rec.Count(telemetry.CounterLabelPatches, 1)
	s.rec.Gauge(telemetry.GaugeDirtyFraction, permille(len(s.walker.Region()), gates))
	for _, u := range s.walker.TopoSuccFirst(s.wr) {
		s.labUndos = append(s.labUndos, labUndo{
			v: u, l: s.lab.L[u], r: s.lab.R[u],
			lt: s.lab.LT[u], rt: s.lab.RT[u], has: s.lab.HasWindow[u],
		})
		s.lab.RelabelVertex(s.g, s.cfg.Params, s.wr, u)
	}
	s.labMode = labPatched
	var err error
	if s.cfg.CheckLabels {
		err = s.crossCheck()
	}
	s.rec.SpanEnd(telemetry.PhaseLabelPatch, err)
	if err != nil {
		return nil, err
	}
	return s.lab, nil
}

// fullRecompute runs the oracle on the current retiming, with the same
// telemetry signature the pre-refactor loop had (an elw-recompute span).
// Every full recompute of the state sorts with one reused Sweep.
func (s *State) fullRecompute() (*elw.Labels, error) {
	s.rec.Count(telemetry.CounterLabelFulls, 1)
	if s.sweep == nil {
		s.sweep = s.g.NewSweep()
	}
	order, err := s.sweep.Topo(s.r)
	if err != nil {
		return nil, err
	}
	return elw.ComputeLabelsInOrder(s.g, s.r, order, s.cfg.Params, s.rec)
}

// fallbackFull replaces the labels by a full recompute of the tentative
// state, keeping the committed labels aside for rollback.
func (s *State) fallbackFull() (*elw.Labels, error) {
	s.rec.Count(telemetry.CounterLabelFallbacks, 1)
	lab, err := s.fullRecompute()
	if err != nil {
		return nil, err
	}
	s.labPrev, s.lab, s.labMode = s.lab, lab, labFull
	return s.lab, nil
}

// crossCheck compares the patched labels against a fresh oracle run. The
// oracle call is deliberately unrecorded so the debug mode does not
// disturb the elw-recompute statistics it is auditing.
func (s *State) crossCheck() error {
	want, err := elw.ComputeLabels(s.g, s.r, s.cfg.Params)
	if err != nil {
		return err
	}
	v, diff := s.lab.FirstDiff(want)
	if !diff {
		return nil
	}
	return &MismatchError{
		Vertex: v, Name: s.g.Name(v),
		GotL: s.lab.L[v], WantL: want.L[v],
		GotR: s.lab.R[v], WantR: want.R[v],
		GotHW: s.lab.HasWindow[v], WantHW: want.HasWindow[v],
		GotLT: s.lab.LT[v], WantLT: want.LT[v],
		GotRT: s.lab.RT[v], WantRT: want.RT[v],
	}
}

// Commit makes the tentative state the committed one.
func (s *State) Commit() {
	if !s.open {
		panic("solverstate: Commit without transaction")
	}
	s.obj = s.objTent
	if s.labMode == labNone && s.lab != nil && s.weightsChanged() {
		// The move changed weights but the labels were never requested:
		// the cached labels describe the pre-move state and must go.
		s.lab = nil
	}
	s.labPrev = nil
	s.closeTxn()
}

// Rollback restores the committed state.
func (s *State) Rollback() {
	if !s.open {
		panic("solverstate: Rollback without transaction")
	}
	for _, u := range s.edgeUndos {
		s.wr[u.e] = u.wr
	}
	for _, v := range s.moved {
		s.r[v] -= s.delta[v]
	}
	s.objTent = s.obj
	s.restoreLabels()
	s.closeTxn()
}

// restoreLabels undoes what the open transaction did to the labels: a
// patch is reverted from its undo log, a full recompute by reinstating
// the saved committed labels.
func (s *State) restoreLabels() {
	switch s.labMode {
	case labPatched:
		for i := len(s.labUndos) - 1; i >= 0; i-- {
			u := &s.labUndos[i]
			s.lab.L[u.v], s.lab.R[u.v] = u.l, u.r
			s.lab.LT[u.v], s.lab.RT[u.v] = u.lt, u.rt
			s.lab.HasWindow[u.v] = u.has
		}
	case labFull:
		s.lab, s.labPrev = s.labPrev, nil
	}
	s.labUndos = s.labUndos[:0]
	s.labMode = labNone
}

func (s *State) closeTxn() {
	for _, v := range s.moved {
		s.delta[v] = 0
	}
	s.moved = s.moved[:0]
	s.edgeUndos = s.edgeUndos[:0]
	s.labUndos = s.labUndos[:0]
	s.negEdges = s.negEdges[:0]
	s.labMode = labNone
	s.open = false
}

// permille scales part/whole to 0..1000 for the dirty-fraction gauge.
func permille(part, whole int) int64 {
	if whole <= 0 {
		return 0
	}
	p := int64(part) * 1000 / int64(whole)
	if p > 1000 {
		p = 1000
	}
	return p
}

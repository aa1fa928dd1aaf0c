package core

import (
	"fmt"

	"serretime/internal/forest"
	"serretime/internal/maxflow"
	"serretime/internal/telemetry"
)

// closureEngine keeps the active constraints as an explicit digraph and
// extracts the maximum-gain closed set with a min-cut. Between exact
// recomputations it maintains the current set incrementally: a new
// constraint out of a member drags the target's arc-closure in; weight
// updates adjust the running total; any doubt (a frozen vertex joins, or
// the total stops being positive) invalidates the cache, and the caller
// falls back to the exact cut.
//
// The exact cut's flow network persists for one commit round (until
// reset): each cut appends the arcs and vertices discovered since the
// last one, applies the weight changes to the terminal edges and augments
// the flow already there (see closureNet).
type closureEngine struct {
	n      int
	gains  []int64
	rec    telemetry.Recorder
	w      []int32
	frozen []bool
	arcSet map[[2]int32]struct{}
	arcs   [][2]int32
	arcOut [][]int32
	arcIn  [][]int32

	cacheValid bool
	mask       []bool
	members    []int32

	// Scratch of the AddConstraint and dropForcing walks: mark[v] ==
	// epoch flags v as visited by the current walk, walk is its worklist.
	mark  []uint32
	epoch uint32
	walk  []int32

	net closureNet
}

// closureNet is the exact cut's flow network over the vertices some
// constraint touches. Vertex v has local id localID[v] (assigned in arc
// order, -1 while untouched) and flow node local id + 2; node 0 is the
// source and node 1 the sink. Vertex v with weight gains[v]·w[v] has one
// terminal edge: source → v of that capacity when it is positive, v →
// sink of its negation when negative, v → sink of Inf when v is frozen,
// none when it is zero. Every arc p → q is a p → q edge of Inf capacity.
//
// The network carries a maximum flow from the previous cut. Added arcs,
// added vertices and larger terminal capacities keep that flow feasible,
// and so does a smaller capacity that the flow does not use; MaxFlow
// then augments it. A terminal edge changing kind (a touched vertex
// frozen) or losing capacity its flow uses cannot be patched, so the
// network is rebuilt from scratch (closure-rebuilds). Either way the cut
// read off the residual network is the same: the set of vertices
// reachable from the source is identical under every maximum flow, so
// the selection never depends on the flow's history.
type closureNet struct {
	g       *maxflow.Graph
	localID []int32
	local   []int32    // local id -> vertex
	term    []terminal // local id -> its terminal edge
	synced  int        // arcs already in g
}

const netSource, netSink int32 = 0, 1

type termKind uint8

const (
	termNone termKind = iota
	termSource
	termSink
	termFrozen
)

// terminal is a vertex's terminal edge in the flow network.
type terminal struct {
	kind termKind
	e    int32 // edge index; unused for termNone
	cap  int64
}

func newClosureEngine(n int, gains []int64, rec telemetry.Recorder) *closureEngine {
	e := &closureEngine{
		n:      n,
		gains:  gains,
		rec:    telemetry.OrNop(rec),
		w:      make([]int32, n),
		frozen: make([]bool, n),
		arcSet: make(map[[2]int32]struct{}),
		arcOut: make([][]int32, n),
		arcIn:  make([][]int32, n),
		mask:   make([]bool, n),
		mark:   make([]uint32, n),
		net: closureNet{
			g:       maxflow.New(2),
			localID: make([]int32, n),
		},
	}
	for v := range e.w {
		e.w[v] = 1
		e.net.localID[v] = -1
	}
	return e
}

// reset returns the engine to its newly-constructed state, keeping its
// storage, so that Minimize can start every round with an empty engine
// without reallocating it.
func (e *closureEngine) reset() {
	for v := range e.w {
		e.w[v] = 1
	}
	clear(e.frozen)
	clear(e.arcSet)
	for _, a := range e.arcs {
		e.arcOut[a[0]] = e.arcOut[a[0]][:0]
		e.arcIn[a[1]] = e.arcIn[a[1]][:0]
	}
	e.arcs = e.arcs[:0]
	e.cacheValid = false
	e.members = e.members[:0]
	nt := &e.net
	for _, v := range nt.local {
		nt.localID[v] = -1
	}
	nt.local = nt.local[:0]
	nt.term = nt.term[:0]
	nt.g.Reset(2)
	nt.synced = 0
}

func (e *closureEngine) total() int64 {
	var t int64
	for _, v := range e.members {
		t += e.gains[v] * int64(e.w[v])
	}
	return t
}

// PositiveSetFast returns the cached incrementally-maintained set; exact
// reports whether it is known to be the maximum-gain closure.
func (e *closureEngine) PositiveSetFast() ([]int32, []bool, bool) {
	if !e.cacheValid {
		return nil, nil, false
	}
	if e.total() <= 0 {
		e.cacheValid = false
		return nil, nil, false
	}
	return e.members, e.mask, false
}

// PositiveSet computes the maximum-gain closed set exactly. The returned
// slices are the engine's own and stay valid until its next call.
func (e *closureEngine) PositiveSet() ([]int32, []bool) {
	// Vertices untouched by any constraint are independent: a positive
	// one is always in the maximum closure, a non-positive one never.
	// Only the constraint-touching subgraph needs the min-cut, which
	// keeps the flow network proportional to the discovered constraints
	// rather than to |V|.
	//
	// The touched vertices selected are the source side of the minimal
	// minimum cut. Its weight is the maximum closure's, and it is empty
	// when that maximum is 0 (the empty set is then a maximizer), so a
	// non-empty result always has a positive total.
	nt := &e.net
	e.syncNet()
	nt.g.MaxFlow(netSource, netSink)

	mask := e.mask
	clear(mask)
	members := e.members[:0]
	for v := 0; v < e.n; v++ {
		if nt.localID[v] < 0 && !e.frozen[v] && e.gains[v]*int64(e.w[v]) > 0 {
			mask[v] = true
			members = append(members, int32(v))
		}
	}
	for id, v := range nt.local {
		if nt.g.SourceSide(int32(id) + 2) {
			mask[v] = true
			members = append(members, v)
		}
	}
	e.members = members
	if len(members) == 0 {
		e.cacheValid = false
		return nil, mask
	}
	e.cacheValid = true
	return members, mask
}

// syncNet brings the flow network up to date with the engine: it appends
// the arcs added since the last cut, with the vertices they newly touch,
// and applies weight and freeze changes to the terminal edges, keeping
// the flow where it stays feasible and rebuilding the network where it
// does not.
func (e *closureEngine) syncNet() {
	nt := &e.net
	known := len(nt.local)
	for _, a := range e.arcs[nt.synced:] {
		p, q := e.touch(a[0]), e.touch(a[1])
		nt.g.AddEdge(p, q, maxflow.Inf)
	}
	nt.synced = len(e.arcs)
	for id, v := range nt.local[:known] {
		have := &nt.term[id]
		kind, c := e.terminalOf(v)
		if kind == have.kind && c == have.cap {
			continue
		}
		if kind != have.kind || (c < have.cap && nt.g.Residual(have.e) < have.cap-c) {
			e.rebuildNet()
			return
		}
		nt.g.Grow(have.e, c-have.cap)
		have.cap = c
	}
}

// terminalOf returns the kind and capacity of v's terminal edge under
// the current weights.
func (e *closureEngine) terminalOf(v int32) (termKind, int64) {
	if e.frozen[v] {
		return termFrozen, maxflow.Inf
	}
	switch wt := e.gains[v] * int64(e.w[v]); {
	case wt > 0:
		return termSource, wt
	case wt < 0:
		return termSink, -wt
	}
	return termNone, 0
}

// addTerminal adds v's terminal edge at flow node node.
func (e *closureEngine) addTerminal(node, v int32) terminal {
	nt := &e.net
	kind, c := e.terminalOf(v)
	t := terminal{kind: kind, cap: c}
	switch kind {
	case termSource:
		t.e = nt.g.AddEdge(netSource, node, c)
	case termSink, termFrozen:
		t.e = nt.g.AddEdge(node, netSink, c)
	}
	return t
}

// touch returns v's flow node, adding it with its terminal edge the
// first time an arc touches v.
func (e *closureEngine) touch(v int32) int32 {
	nt := &e.net
	if id := nt.localID[v]; id >= 0 {
		return id + 2
	}
	nt.localID[v] = int32(len(nt.local))
	nt.local = append(nt.local, v)
	node := nt.g.AddNode()
	nt.term = append(nt.term, e.addTerminal(node, v))
	return node
}

// rebuildNet replaces the network with a fresh one over the same local
// ids, carrying no flow.
func (e *closureEngine) rebuildNet() {
	e.rec.Count(telemetry.CounterClosureRebuilds, 1)
	nt := &e.net
	nt.g.Reset(2 + len(nt.local))
	for id, v := range nt.local {
		nt.term[id] = e.addTerminal(int32(id)+2, v)
	}
	for _, a := range e.arcs {
		nt.g.AddEdge(nt.localID[a[0]]+2, nt.localID[a[1]]+2, maxflow.Inf)
	}
}

func (e *closureEngine) Weight(v int32) int32 { return e.w[v] }

// seedArc records the constraint p → q without the incremental-cache
// maintenance of AddConstraint, and reports whether it is new. Bulk
// loaders (seedRequirementClosure) use it and invalidate the cached set
// once, when done.
func (e *closureEngine) seedArc(p, q int32) bool {
	key := [2]int32{p, q}
	if _, dup := e.arcSet[key]; dup {
		return false
	}
	e.arcSet[key] = struct{}{}
	e.arcs = append(e.arcs, key)
	e.arcOut[p] = append(e.arcOut[p], q)
	e.arcIn[q] = append(e.arcIn[q], p)
	return true
}

func (e *closureEngine) SetWeight(q int32, w int32) error {
	if w < 1 {
		return fmt.Errorf("core: weight %d < 1", w)
	}
	e.w[q] = w
	// The cached total shifts; PositiveSetFast re-sums and invalidates
	// itself if the set stops being positive. The flow network picks the
	// change up at the next exact cut.
	return nil
}

// nextEpoch starts a new walk over mark.
func (e *closureEngine) nextEpoch() uint32 {
	e.epoch++
	if e.epoch == 0 {
		clear(e.mark)
		e.epoch = 1
	}
	return e.epoch
}

func (e *closureEngine) AddConstraint(p, q int32) error {
	if p == q {
		return fmt.Errorf("core: self-constraint at %d", p)
	}
	if !e.seedArc(p, q) {
		return nil
	}
	if e.cacheValid && e.mask[p] && !e.mask[q] {
		// Phase 1: explore q's arc-closure without mutating; a frozen
		// vertex inside means the cached set cannot absorb q.
		ep := e.nextEpoch()
		closure := append(e.walk[:0], q)
		e.mark[q] = ep
		frozenHit := e.frozen[q]
		for i := 0; i < len(closure) && !frozenHit; i++ {
			for _, nx := range e.arcOut[closure[i]] {
				if e.mark[nx] == ep || e.mask[nx] {
					continue
				}
				if e.frozen[nx] {
					frozenHit = true
					break
				}
				e.mark[nx] = ep
				closure = append(closure, nx)
			}
		}
		e.walk = closure
		if frozenHit {
			// Drop every cached member that (transitively) forces q: the
			// remainder is still a closed set (anything pointing into the
			// dropped part would itself force q).
			e.dropForcing(q)
			return nil
		}
		for _, v := range closure {
			e.mask[v] = true
			e.members = append(e.members, v)
		}
	}
	return nil
}

// dropForcing removes from the cached set all members with an arc path to
// target.
func (e *closureEngine) dropForcing(target int32) {
	ep := e.nextEpoch()
	stack := append(e.walk[:0], target)
	dropped := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pr := range e.arcIn[v] {
			if e.mask[pr] && e.mark[pr] != ep {
				e.mark[pr] = ep
				dropped++
				stack = append(stack, pr)
			}
		}
	}
	e.walk = stack
	if dropped == 0 {
		return
	}
	kept := e.members[:0]
	for _, m := range e.members {
		if e.mark[m] == ep {
			e.mask[m] = false
		} else {
			kept = append(kept, m)
		}
	}
	e.members = kept
}

func (e *closureEngine) Freeze(v int32) {
	e.frozen[v] = true
	if e.cacheValid && e.mask[v] {
		e.mask[v] = false
		for i, m := range e.members {
			if m == v {
				e.members = append(e.members[:i], e.members[i+1:]...)
				break
			}
		}
		e.dropForcing(v)
	}
}

func (e *closureEngine) Frozen(v int32) bool { return e.frozen[v] }

// forestEngine adapts the weighted regular forest to the engine interface.
type forestEngine struct {
	f *forest.Forest
}

func newForestEngine(n int, gains []int64, rec telemetry.Recorder) (*forestEngine, error) {
	f, err := forest.New(n, gains)
	if err != nil {
		return nil, err
	}
	f.Instrument(rec)
	return &forestEngine{f: f}, nil
}

func (e *forestEngine) PositiveSet() ([]int32, []bool) { return e.f.PositiveSet() }

// PositiveSetFast: the forest maintains its trees incrementally and its
// set is always authoritative.
func (e *forestEngine) PositiveSetFast() ([]int32, []bool, bool) {
	m, mask := e.f.PositiveSet()
	return m, mask, true
}

func (e *forestEngine) Weight(v int32) int32 { return e.f.Weight(v) }

func (e *forestEngine) SetWeight(q int32, w int32) error {
	if e.f.Weight(q) == w {
		return nil
	}
	if !e.f.IsSingleton(q) {
		e.f.Break(q) // Figure 3: BreakTree before the weight update
	}
	return e.f.SetWeight(q, w)
}

func (e *forestEngine) AddConstraint(p, q int32) error { return e.f.Link(p, q) }
func (e *forestEngine) Freeze(v int32)                 { e.f.Freeze(v) }
func (e *forestEngine) Frozen(v int32) bool            { return e.f.Frozen(v) }

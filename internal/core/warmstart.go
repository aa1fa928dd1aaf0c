package core

import (
	"serretime/internal/graph"
	"serretime/internal/solverstate"
)

// seedRequirementClosure pre-loads a fresh closure engine with the P0
// requirement closure of the committed state: the constraints the lazy
// cascade would discover, one negative-edge batch at a time, while
// whittling the gain-positive candidates down to a legal move.
//
// A P0 violation on edge e = (u → v) with tentative weight
// wr(e) − w(v) + w(u) < 0 repairs to the constraint "v's move forces u to
// move w(v) − wr(e)". That requirement depends only on the committed edge
// weights, so the whole closure is computable up front by a worklist
// relaxation rooted at the gain-positive vertices (exactly the first
// tentative set a fresh engine proposes each round). Around any cycle the
// register sum is ≥ 1 on a legal graph, so propagated requirements
// strictly decrease per lap and the relaxation terminates.
//
// The seeded engine state is a deterministic function of (g, committed
// wr, gains): the worklist is FIFO over ascending vertex IDs and fanin
// edges are scanned in g.In order, so arc insertion order — which the
// min-cut's tie-breaking can observe — is reproducible. Seeding adds only
// constraints that are true of the current problem, and the loop's
// findViolations still verifies every tentative against the
// authoritative state before a commit, so every committed move is legal.
// The committed result is not always the lazy cascade's, though: the
// seeded arcs change which closed sets the min-cut proposes, and on some
// inputs the loop settles on a different verified retiming. On most
// circuits the bytes are identical (TestWarmStartMatchesCold); on the
// Table I substitutes where they are not, the tier and round count match
// and the SER differs by well under 1% (TestWarmStartCloseToCold).
//
// It returns the number of arcs seeded.
func seedRequirementClosure(e *closureEngine, g *graph.Graph, st *solverstate.State, gains []int64) int {
	arcs0 := len(e.arcs)
	n := g.NumVertices()
	host := int32(graph.Host)
	inT := make([]bool, n)
	inQ := make([]bool, n)
	queue := make([]int32, 0, n)
	push := func(v int32) {
		if !inQ[v] {
			inQ[v] = true
			queue = append(queue, v)
		}
	}
	for v := 0; v < n; v++ {
		vid := int32(v)
		if vid != host && !e.frozen[v] && gains[v] > 0 {
			inT[v] = true
			push(vid)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		inQ[v] = false
		wv := e.w[v]
		for _, eid := range g.In(graph.VertexID(v)) {
			ed := g.Edge(eid)
			u := int32(ed.From)
			if u == v {
				// Both ends of a self-loop move together: its tentative
				// weight never changes, so it cannot violate P0.
				continue
			}
			need := wv - st.WR(eid)
			if need <= 0 {
				continue
			}
			e.seedArc(v, u)
			if u == host || e.frozen[u] {
				// u cannot absorb registers: the min-cut's frozen
				// handling excludes v (and its forcers) instead.
				continue
			}
			if need > e.w[u] {
				e.w[u] = need
				push(u)
			}
			if !inT[u] {
				inT[u] = true
				push(u)
			}
		}
		if head > 0 && head%n == 0 {
			// Compact the drained prefix so the queue cannot grow without
			// bound on long relaxations.
			queue = append(queue[:0], queue[head:]...)
			head = 0
		}
	}
	e.cacheValid = false
	return len(e.arcs) - arcs0
}

package graph

// RegionWalker computes dirty regions of the zero-weight subgraph: the set
// of vertices whose L/R labels (internal/elw, eq. 6) can change when the
// classification of some edges flips between "registered" (w_r > 0) and
// "combinational" (w_r = 0) under a tentative retiming move.
//
// Labels propagate backward — a vertex reads the labels of its zero-weight
// successors — so the region grown from the seed vertices (the sources of
// reclassified edges) is the closure under zero-weight *predecessor* edges:
// every vertex with a zero-weight path into a seed. Vertices outside the
// closure provably keep their labels: all their out-edge classifications
// are unchanged and, by induction on reverse topological depth, every
// successor they read is outside the region too.
//
// Host-incident edges never participate: the environment is a timing
// barrier (the timing sweeps ignore them, and the label kernel treats edges
// into the host as registered regardless of weight).
//
// The walker's buffers are sized once for a graph and reused across calls;
// it is not safe for concurrent use.
type RegionWalker struct {
	g        *Graph
	inRegion []bool
	region   []VertexID
	scan     int // Collect's breadth-first position in region

	// DFS scratch for TopoSuccFirst.
	state []uint8
	stack []VertexID
	order []VertexID
}

// NewRegionWalker allocates a walker for g.
func NewRegionWalker(g *Graph) *RegionWalker {
	n := g.NumVertices()
	return &RegionWalker{
		g:        g,
		inRegion: make([]bool, n),
		region:   make([]VertexID, 0, n),
		state:    make([]uint8, n),
		stack:    make([]VertexID, 0, n),
		order:    make([]VertexID, 0, n),
	}
}

// Reset clears the collected region for reuse.
func (rw *RegionWalker) Reset() {
	for _, v := range rw.region {
		rw.inRegion[v] = false
		rw.state[v] = 0
	}
	rw.region = rw.region[:0]
	rw.order = rw.order[:0]
}

// Collect grows the dirty region: the closure of seeds under edges with
// wr[e] == 0 whose endpoints are both non-host, walked from sink to
// source. wr is indexed by EdgeID and must describe the *tentative* edge
// weights. It reports false — leaving a partial region that Finish can
// complete and the next call clears — when the region would exceed limit
// vertices (limit <= 0 means unbounded), the caller's cue to fall back to
// a full label recompute. Host and duplicate seeds are ignored.
func (rw *RegionWalker) Collect(wr []int32, seeds []VertexID, limit int) bool {
	rw.Reset()
	rw.scan = 0
	for _, s := range seeds {
		rw.add(s)
	}
	return rw.grow(wr, limit)
}

// Finish completes the walk a Collect stopped at its limit and returns
// the size of the whole closure; after a complete Collect it returns the
// region's size. Only telemetry wants the size of a region that already
// tripped its limit, so Collect never pays for it.
func (rw *RegionWalker) Finish(wr []int32) int {
	rw.grow(wr, 0)
	return len(rw.region)
}

func (rw *RegionWalker) add(v VertexID) {
	if v == Host || rw.inRegion[v] {
		return
	}
	rw.inRegion[v] = true
	rw.region = append(rw.region, v)
}

// grow expands the region breadth-first from rw.scan, stopping once it
// holds more than limit vertices (limit <= 0: never). The vertex being
// expanded when it stops stays at rw.scan, so a later grow re-expands it;
// add ignores the predecessors already taken.
func (rw *RegionWalker) grow(wr []int32, limit int) bool {
	for ; rw.scan < len(rw.region); rw.scan++ {
		if limit > 0 && len(rw.region) > limit {
			return false
		}
		for _, eid := range rw.g.In(rw.region[rw.scan]) {
			if from := rw.g.eFrom[eid]; from != Host && wr[eid] == 0 {
				rw.add(from)
			}
		}
	}
	return limit <= 0 || len(rw.region) <= limit
}

// Region returns the collected vertices in discovery order. The slice is
// owned by the walker and valid until the next Collect/Reset.
func (rw *RegionWalker) Region() []VertexID { return rw.region }

// InRegion reports whether v is in the collected region.
func (rw *RegionWalker) InRegion(v VertexID) bool { return rw.inRegion[v] }

// TopoSuccFirst returns the region ordered successors-first along the
// zero-weight out-edges that stay inside the region: every vertex appears
// after each zero-weight successor whose labels it reads, so relabeling in
// this order sees only finalized successors — the same dependency order as
// the reverse walk of a Sweep order in the full recompute. The zero-weight
// subgraph is acyclic under every retiming (each cycle keeps its total
// register count, which is >= 1), so the DFS needs no cycle handling; a
// zero-weight cycle would indicate a corrupted weight slice and panics.
// The slice is owned by the walker and valid until the next Collect/Reset.
func (rw *RegionWalker) TopoSuccFirst(wr []int32) []VertexID {
	const (
		unseen = 0
		active = 1
		done   = 2
	)
	rw.order = rw.order[:0]
	for _, root := range rw.region {
		if rw.state[root] != unseen {
			continue
		}
		// Iterative DFS with an explicit stack; a vertex is pushed once,
		// expanded when first popped, and emitted when popped done.
		rw.stack = append(rw.stack[:0], root)
		for len(rw.stack) > 0 {
			v := rw.stack[len(rw.stack)-1]
			switch rw.state[v] {
			case unseen:
				rw.state[v] = active
				for _, eid := range rw.g.Out(v) {
					to := rw.g.eTo[eid]
					if to == Host || wr[eid] != 0 || !rw.inRegion[to] {
						continue
					}
					switch rw.state[to] {
					case unseen:
						rw.stack = append(rw.stack, to)
					case active:
						panic("graph: zero-weight cycle in dirty region")
					}
				}
			case active:
				rw.state[v] = done
				rw.stack = rw.stack[:len(rw.stack)-1]
				rw.order = append(rw.order, v)
			default: // done: pushed twice before first expansion
				rw.stack = rw.stack[:len(rw.stack)-1]
			}
		}
	}
	return rw.order
}

// Package maxflow implements Dinic's maximum-flow algorithm, used by the
// retiming core to extract maximum-gain closed sets (the max-weight
// closure reduction) from the active-constraint digraph.
//
// A Graph can grow after a MaxFlow call — new nodes, new edges, more or
// less residual capacity on an existing edge — and a later MaxFlow
// augments the flow already in the network instead of starting over.
package maxflow

import "math"

// Inf is the capacity used for must-follow (closure) arcs.
const Inf int64 = math.MaxInt64 / 4

// edge is one direction of an arc; edges 2k and 2k+1 are each other's
// reverse, so cap is the residual capacity in this direction.
type edge struct {
	to  int32
	cap int64
}

// Graph is a flow network. Edges are addressed by the index AddEdge
// returns.
type Graph struct {
	edges []edge
	adj   [][]int32 // node -> indices of its outgoing edges (and reverses)
	// Scratch reused across MaxFlow calls. After MaxFlow, level[v] >= 0
	// exactly for the nodes reachable from s in the residual network.
	level []int32
	iter  []int32
	queue []int32
}

// New creates a network with n nodes (0..n-1).
func New(n int) *Graph {
	return &Graph{adj: make([][]int32, n)}
}

// Reset empties the network down to n nodes and no edges, keeping the
// allocated storage for reuse.
func (g *Graph) Reset(n int) {
	g.edges = g.edges[:0]
	g.adj = g.adj[:0]
	for i := 0; i < n; i++ {
		g.AddNode()
	}
}

// AddNode appends a node with no edges and returns its index.
func (g *Graph) AddNode() int32 {
	if n := len(g.adj); n < cap(g.adj) {
		// Reuse the edge list a Reset left behind.
		g.adj = g.adj[:n+1]
		g.adj[n] = g.adj[n][:0]
	} else {
		g.adj = append(g.adj, nil)
	}
	return int32(len(g.adj) - 1)
}

// AddEdge adds a directed edge with the given capacity and returns its
// index.
func (g *Graph) AddEdge(from, to int32, cap int64) int32 {
	id := int32(len(g.edges))
	g.edges = append(g.edges, edge{to: to, cap: cap}, edge{to: from})
	g.adj[from] = append(g.adj[from], id)
	g.adj[to] = append(g.adj[to], id+1)
	return id
}

// Residual returns the residual capacity of edge e: its capacity minus
// the flow on it.
func (g *Graph) Residual(e int32) int64 { return g.edges[e].cap }

// Grow changes the capacity of edge e by delta, keeping its flow. A
// negative delta must not exceed the residual capacity.
func (g *Graph) Grow(e int32, delta int64) {
	if delta < 0 && -delta > g.edges[e].cap {
		panic("maxflow: capacity below the flow")
	}
	g.edges[e].cap += delta
}

// MaxFlow augments the current flow to a maximum s-t flow and returns
// the amount added: the whole maximum flow on a fresh network.
func (g *Graph) MaxFlow(s, t int32) int64 {
	var flow int64
	n := len(g.adj)
	g.level = resize(g.level, n)
	g.iter = resize(g.iter, n)
	for g.bfs(s, t) {
		clear(g.iter)
		for {
			f := g.dfs(s, t, Inf)
			if f == 0 {
				break
			}
			flow += f
		}
	}
	return flow
}

func resize(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n, 2*n)
	}
	return b[:n]
}

func (g *Graph) bfs(s, t int32) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	queue := append(g.queue[:0], s)
	g.level[s] = 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, ei := range g.adj[v] {
			e := &g.edges[ei]
			if e.cap > 0 && g.level[e.to] < 0 {
				g.level[e.to] = g.level[v] + 1
				queue = append(queue, e.to)
			}
		}
	}
	g.queue = queue
	return g.level[t] >= 0
}

func (g *Graph) dfs(v, t int32, f int64) int64 {
	if v == t {
		return f
	}
	adj := g.adj[v]
	for ; g.iter[v] < int32(len(adj)); g.iter[v]++ {
		ei := adj[g.iter[v]]
		e := &g.edges[ei]
		if e.cap <= 0 || g.level[v] >= g.level[e.to] {
			continue
		}
		d := f
		if e.cap < d {
			d = e.cap
		}
		d = g.dfs(e.to, t, d)
		if d > 0 {
			e.cap -= d
			g.edges[ei^1].cap += d
			return d
		}
	}
	return 0
}

// SourceSide reports whether v is on the source side of the minimum cut
// found by the last MaxFlow call: reachable from s in the residual
// network. That side is the same for every maximum flow (the unique
// minimal minimum cut). Valid until the network next changes.
func (g *Graph) SourceSide(v int32) bool { return g.level[v] >= 0 }

// MinCutSide returns the source side of a minimum cut after MaxFlow:
// the set of nodes reachable from s in the residual network.
func (g *Graph) MinCutSide(s int32) []bool {
	side := make([]bool, len(g.adj))
	stack := []int32{s}
	side[s] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range g.adj[v] {
			if e := g.edges[ei]; e.cap > 0 && !side[e.to] {
				side[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return side
}

// MaxClosure computes a maximum-weight closed set of a digraph: selecting
// a node forces selecting all of its must-follow successors. weights may
// be negative; frozen nodes can never be selected. It returns the selected
// mask and the total weight of the selection (0 with an empty selection
// when no positive-weight closure exists).
func MaxClosure(n int, weights []int64, frozen []bool, arcs [][2]int32) ([]bool, int64) {
	// Standard reduction: source s -> v with cap w(v) for positive
	// weights, v -> sink t with cap -w(v) for negative (Inf for frozen),
	// Inf arcs for the closure constraints. The source side of a min cut
	// is a maximum-weight closure.
	s, t := int32(n), int32(n+1)
	g := New(n + 2)
	var totalPos int64
	for v := 0; v < n; v++ {
		if frozen[v] {
			g.AddEdge(int32(v), t, Inf)
			continue
		}
		if weights[v] > 0 {
			g.AddEdge(s, int32(v), weights[v])
			totalPos += weights[v]
		} else if weights[v] < 0 {
			g.AddEdge(int32(v), t, -weights[v])
		}
	}
	for _, a := range arcs {
		g.AddEdge(a[0], a[1], Inf)
	}
	cut := g.MaxFlow(s, t)
	side := g.MinCutSide(s)
	sel := make([]bool, n)
	for v := 0; v < n; v++ {
		sel[v] = side[v]
	}
	return sel, totalPos - cut
}

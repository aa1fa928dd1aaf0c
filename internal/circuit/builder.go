package circuit

import "fmt"

// Builder assembles a Circuit from name-based declarations that may contain
// forward references (a gate may read a net declared later, as is normal in
// netlist files and mandatory for feedback through flip-flops).
type Builder struct {
	name    string
	decls   []decl
	poNames []string
	seen    map[string]int // name -> index in decls
}

type decl struct {
	name   string
	kind   Kind
	fn     Func
	fanins []string
}

// NewBuilder returns an empty builder for a design with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, seen: make(map[string]int)}
}

// SetName replaces the design name (parsers use it when the netlist text
// itself carries a name that overrides the filename-derived fallback).
func (b *Builder) SetName(name string) { b.name = name }

// PI declares a primary input net.
func (b *Builder) PI(name string) *Builder {
	b.decls = append(b.decls, decl{name: name, kind: KindPI})
	return b
}

// Gate declares a combinational gate reading the given nets.
func (b *Builder) Gate(name string, fn Func, fanin ...string) *Builder {
	b.decls = append(b.decls, decl{name: name, kind: KindGate, fn: fn, fanins: append([]string(nil), fanin...)})
	return b
}

// DFF declares a D flip-flop reading net d.
func (b *Builder) DFF(name, d string) *Builder {
	b.decls = append(b.decls, decl{name: name, kind: KindDFF, fanins: []string{d}})
	return b
}

// PO marks a net as a primary output. The net may be declared before or
// after this call.
func (b *Builder) PO(name string) *Builder {
	b.poNames = append(b.poNames, name)
	return b
}

// Build resolves all references and returns a validated Circuit.
func (b *Builder) Build() (*Circuit, error) {
	c := New(b.name)
	// Phase 1: create every node with unresolved fanin so that names exist.
	for _, d := range b.decls {
		if d.name == "" {
			return nil, fmt.Errorf("circuit builder %q: empty net name", b.name)
		}
		if _, dup := c.byName[d.name]; dup {
			return nil, fmt.Errorf("circuit builder %q: duplicate net %q", b.name, d.name)
		}
		id := NodeID(len(c.nodes))
		c.nodes = append(c.nodes, Node{Name: d.name, Kind: d.kind, Fn: d.fn})
		c.byName[d.name] = id
		if d.kind == KindPI {
			c.pis = append(c.pis, id)
		}
	}
	// Phase 2: resolve fanins.
	for i, d := range b.decls {
		if len(d.fanins) == 0 {
			continue
		}
		fanin := make([]NodeID, len(d.fanins))
		for j, fn := range d.fanins {
			fid, ok := c.byName[fn]
			if !ok {
				return nil, fmt.Errorf("circuit builder %q: node %q reads undeclared net %q", b.name, d.name, fn)
			}
			fanin[j] = fid
		}
		c.nodes[i].Fanin = fanin
	}
	// Phase 3: primary outputs.
	pos := make([]NodeID, 0, len(b.poNames))
	for _, po := range b.poNames {
		id, ok := c.byName[po]
		if !ok {
			return nil, fmt.Errorf("circuit builder %q: OUTPUT of undeclared net %q", b.name, po)
		}
		pos = append(pos, id)
	}
	if err := c.link(pos); err != nil {
		return nil, err
	}
	return c, nil
}

// Assemble is Build for producers that number the nodes themselves: the
// nodes' fanins are already node IDs, so no name is resolved. It takes
// ownership of nodes and builds the circuit as Build does: names must be
// unique (a duplicate is reported as Build reports it), the primary
// inputs are the KindPI nodes in node order, pos are marked as primary
// outputs in the given order, and the result is validated.
func Assemble(name string, nodes []Node, pos []NodeID) (*Circuit, error) {
	c := &Circuit{Name: name, nodes: nodes, byName: make(map[string]NodeID, len(nodes))}
	for i := range nodes {
		nd := &nodes[i]
		if nd.Name == "" {
			return nil, fmt.Errorf("circuit builder %q: empty net name", name)
		}
		if _, dup := c.byName[nd.Name]; dup {
			return nil, fmt.Errorf("circuit builder %q: duplicate net %q", name, nd.Name)
		}
		c.byName[nd.Name] = NodeID(i)
		if nd.Kind == KindPI {
			c.pis = append(c.pis, NodeID(i))
		}
		for _, f := range nd.Fanin {
			if int(f) < 0 || int(f) >= len(nodes) {
				return nil, fmt.Errorf("circuit builder %q: node %q references unknown fanin %d", name, nd.Name, f)
			}
		}
	}
	if err := c.link(pos); err != nil {
		return nil, err
	}
	return c, nil
}

// link finishes a circuit whose nodes and resolved fanins are in place:
// it builds every Fanout list (deduplicated, ascending, packed into one
// shared array), marks pos as primary outputs in order (MarkPO: repeats
// ignored) and validates. Fanouts take two passes over each node's
// distinct fanins, counting and then filling; readers are visited in ID
// order, so every list comes out ascending. Three-index slices keep a
// later append from spilling into a neighbour's list.
func (c *Circuit) link(pos []NodeID) error {
	nodes := c.nodes
	next := make([]int32, len(nodes)+1) // fanout offsets, then fill cursors
	mark := make([]int32, len(nodes))
	distinct := func(i int, visit func(f NodeID)) {
		epoch := int32(i) + 1
		for _, f := range nodes[i].Fanin {
			if mark[f] != epoch {
				mark[f] = epoch
				visit(f)
			}
		}
	}
	for i := range nodes {
		distinct(i, func(f NodeID) { next[f+1]++ })
	}
	for i := range nodes {
		next[i+1] += next[i]
	}
	fanout := make([]NodeID, next[len(nodes)])
	clear(mark)
	for i := range nodes {
		distinct(i, func(f NodeID) {
			fanout[next[f]] = NodeID(i)
			next[f]++
		})
	}
	lo := int32(0)
	for i := range nodes {
		hi := next[i] // node i's cursor ended where node i+1's list starts
		nodes[i].Fanout = nil
		if hi > lo {
			nodes[i].Fanout = fanout[lo:hi:hi]
		}
		lo = hi
	}
	for _, po := range pos {
		if err := c.MarkPO(po); err != nil {
			return err
		}
	}
	return c.Validate()
}

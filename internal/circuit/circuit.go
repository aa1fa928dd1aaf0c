// Package circuit models gate-level sequential netlists: combinational
// gates, D flip-flops, primary inputs and primary outputs.
//
// It is the structural substrate for everything else in this module: the
// .bench parser produces a Circuit, the logic simulator evaluates one, the
// retiming graph is extracted from one, and a retimed graph is materialized
// back into one for equivalence checking.
package circuit

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// NodeID indexes a node within a Circuit. IDs are dense: 0..len(Nodes)-1.
type NodeID int32

// InvalidNode is the zero-meaning sentinel for "no node".
const InvalidNode NodeID = -1

// Kind classifies a node.
type Kind uint8

const (
	// KindPI is a primary input.
	KindPI Kind = iota
	// KindGate is a combinational gate; its function is Node.Fn.
	KindGate
	// KindDFF is an edge-triggered D flip-flop with a single data input.
	KindDFF
)

func (k Kind) String() string {
	switch k {
	case KindPI:
		return "PI"
	case KindGate:
		return "GATE"
	case KindDFF:
		return "DFF"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Func is a combinational gate function.
type Func uint8

const (
	// FnBuf is the identity function of one input.
	FnBuf Func = iota
	// FnNot is inversion of one input.
	FnNot
	// FnAnd is the conjunction of all inputs.
	FnAnd
	// FnNand is the negated conjunction.
	FnNand
	// FnOr is the disjunction of all inputs.
	FnOr
	// FnNor is the negated disjunction.
	FnNor
	// FnXor is the parity of all inputs.
	FnXor
	// FnXnor is the negated parity.
	FnXnor
	// FnConst0 is the constant 0 (no inputs).
	FnConst0
	// FnConst1 is the constant 1 (no inputs).
	FnConst1
)

var funcNames = [...]string{
	FnBuf: "BUF", FnNot: "NOT", FnAnd: "AND", FnNand: "NAND",
	FnOr: "OR", FnNor: "NOR", FnXor: "XOR", FnXnor: "XNOR",
	FnConst0: "CONST0", FnConst1: "CONST1",
}

func (f Func) String() string {
	if int(f) < len(funcNames) {
		return funcNames[f]
	}
	return fmt.Sprintf("Func(%d)", uint8(f))
}

// ParseFunc resolves a gate function by its canonical name (the String
// form, case-insensitive). Used by the parsers and the ECO delta codec.
func ParseFunc(name string) (Func, bool) {
	for f, n := range funcNames {
		if strings.EqualFold(name, n) {
			return Func(f), true
		}
	}
	return 0, false
}

// MinInputs returns the minimum legal fanin count for the function.
func (f Func) MinInputs() int {
	switch f {
	case FnConst0, FnConst1:
		return 0
	case FnBuf, FnNot:
		return 1
	default:
		return 2
	}
}

// MaxInputs returns the maximum legal fanin count, or -1 for unbounded.
func (f Func) MaxInputs() int {
	switch f {
	case FnConst0, FnConst1:
		return 0
	case FnBuf, FnNot:
		return 1
	default:
		return -1
	}
}

// Eval computes the function over word-parallel input signatures: each
// uint64 carries 64 independent simulation vectors.
func (f Func) Eval(in []uint64) uint64 {
	switch f {
	case FnConst0:
		return 0
	case FnConst1:
		return ^uint64(0)
	case FnBuf:
		return in[0]
	case FnNot:
		return ^in[0]
	case FnAnd, FnNand:
		v := ^uint64(0)
		for _, x := range in {
			v &= x
		}
		if f == FnNand {
			v = ^v
		}
		return v
	case FnOr, FnNor:
		var v uint64
		for _, x := range in {
			v |= x
		}
		if f == FnNor {
			v = ^v
		}
		return v
	case FnXor, FnXnor:
		var v uint64
		for _, x := range in {
			v ^= x
		}
		if f == FnXnor {
			v = ^v
		}
		return v
	}
	panic(fmt.Sprintf("circuit: Eval of unknown function %d", uint8(f)))
}

// EvalFanin computes the function over fanin signatures read directly from
// a node-major value plane: input j is vals[int(fanin[j])*stride+w]. It is
// Eval without the gather copy — the word operations run in the same order
// over the same values, so the result is bit-identical.
func (f Func) EvalFanin(vals []uint64, fanin []NodeID, stride, w int) uint64 {
	switch f {
	case FnConst0:
		return 0
	case FnConst1:
		return ^uint64(0)
	case FnBuf:
		return vals[int(fanin[0])*stride+w]
	case FnNot:
		return ^vals[int(fanin[0])*stride+w]
	case FnAnd, FnNand:
		v := ^uint64(0)
		for _, fid := range fanin {
			v &= vals[int(fid)*stride+w]
		}
		if f == FnNand {
			v = ^v
		}
		return v
	case FnOr, FnNor:
		var v uint64
		for _, fid := range fanin {
			v |= vals[int(fid)*stride+w]
		}
		if f == FnNor {
			v = ^v
		}
		return v
	case FnXor, FnXnor:
		var v uint64
		for _, fid := range fanin {
			v ^= vals[int(fid)*stride+w]
		}
		if f == FnXnor {
			v = ^v
		}
		return v
	}
	panic(fmt.Sprintf("circuit: EvalFanin of unknown function %d", uint8(f)))
}

// Node is one element of a circuit.
type Node struct {
	// Name is the net name of the node's output. Unique within a circuit.
	Name string
	// Kind classifies the node; Fn is meaningful only for KindGate.
	Kind Kind
	Fn   Func
	// Fanin lists driver nodes in input-pin order. Empty for PIs and
	// constants; exactly one entry for DFFs, NOT and BUF.
	Fanin []NodeID
	// Fanout lists reader nodes, deduplicated, in ascending ID order.
	// Maintained by Circuit; a node reading the same net twice appears once.
	Fanout []NodeID
}

// Circuit is a mutable gate-level netlist.
type Circuit struct {
	// Name identifies the design (e.g. the benchmark name).
	Name string

	nodes  []Node
	byName map[string]NodeID
	// pos lists the nodes whose output nets are primary outputs, in
	// declaration order. A node may be a PO and still drive other nodes.
	pos []NodeID
	// pis caches the primary inputs in declaration order.
	pis []NodeID

	// csr is the cached flat view (see csr.go), invalidated by any
	// mutation; csrMu serializes its construction.
	csr   *CSR
	csrMu sync.Mutex

	// dedupMark/dedupEpoch are add's fanout-dedup scratch: an epoch stamp
	// per node replaces a per-call map, so appending N gates costs O(1)
	// dedup allocations instead of O(N). (Builder.Build and Assemble dedup
	// in link with a mark array of their own.) Only mutating calls touch
	// the scratch, which are single-goroutine by contract.
	dedupMark  []uint32
	dedupEpoch uint32
}

// dedupBegin sizes the dedup scratch to the current node count and opens
// a fresh epoch. A node f is "seen" this epoch iff dedupMark[f] equals
// the returned epoch.
func (c *Circuit) dedupBegin() uint32 {
	if len(c.dedupMark) < len(c.nodes) {
		c.dedupMark = append(c.dedupMark, make([]uint32, len(c.nodes)-len(c.dedupMark))...)
	}
	c.dedupEpoch++
	if c.dedupEpoch == 0 { // wrapped: stale stamps become ambiguous
		clear(c.dedupMark)
		c.dedupEpoch = 1
	}
	return c.dedupEpoch
}

// New returns an empty circuit with the given design name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]NodeID)}
}

// NumNodes returns the total node count (PIs + gates + DFFs).
func (c *Circuit) NumNodes() int { return len(c.nodes) }

// Node returns the node with the given ID. The returned pointer stays valid
// until the next Add call.
func (c *Circuit) Node(id NodeID) *Node { return &c.nodes[id] }

// Lookup returns the node ID for a net name.
func (c *Circuit) Lookup(name string) (NodeID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// PIs returns the primary input IDs in declaration order. Callers must not
// modify the returned slice.
func (c *Circuit) PIs() []NodeID { return c.pis }

// POs returns the IDs of nodes whose outputs are primary outputs, in
// declaration order. Callers must not modify the returned slice.
func (c *Circuit) POs() []NodeID { return c.pos }

// AddPI appends a primary input with the given net name.
func (c *Circuit) AddPI(name string) (NodeID, error) {
	id, err := c.add(Node{Name: name, Kind: KindPI})
	if err != nil {
		return InvalidNode, err
	}
	c.pis = append(c.pis, id)
	return id, nil
}

// AddGate appends a combinational gate.
func (c *Circuit) AddGate(name string, fn Func, fanin ...NodeID) (NodeID, error) {
	if n := len(fanin); n < fn.MinInputs() || (fn.MaxInputs() >= 0 && n > fn.MaxInputs()) {
		return InvalidNode, fmt.Errorf("circuit: gate %q: %s cannot take %d inputs", name, fn, len(fanin))
	}
	return c.add(Node{Name: name, Kind: KindGate, Fn: fn, Fanin: append([]NodeID(nil), fanin...)})
}

// AddDFF appends a D flip-flop reading the given data input.
func (c *Circuit) AddDFF(name string, d NodeID) (NodeID, error) {
	return c.add(Node{Name: name, Kind: KindDFF, Fanin: []NodeID{d}})
}

// MarkPO declares the node's output net a primary output.
func (c *Circuit) MarkPO(id NodeID) error {
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return fmt.Errorf("circuit: MarkPO of unknown node %d", id)
	}
	for _, p := range c.pos {
		if p == id {
			return nil // already a PO; idempotent
		}
	}
	c.pos = append(c.pos, id)
	c.csr = nil
	return nil
}

func (c *Circuit) add(n Node) (NodeID, error) {
	if n.Name == "" {
		return InvalidNode, fmt.Errorf("circuit: empty node name")
	}
	if _, dup := c.byName[n.Name]; dup {
		return InvalidNode, fmt.Errorf("circuit: duplicate net name %q", n.Name)
	}
	for _, f := range n.Fanin {
		if int(f) < 0 || int(f) >= len(c.nodes) {
			return InvalidNode, fmt.Errorf("circuit: node %q references unknown fanin %d", n.Name, f)
		}
	}
	id := NodeID(len(c.nodes))
	c.nodes = append(c.nodes, n)
	c.byName[n.Name] = id
	c.csr = nil
	epoch := c.dedupBegin()
	for _, f := range n.Fanin {
		if c.dedupMark[f] == epoch {
			continue
		}
		c.dedupMark[f] = epoch
		c.nodes[f].Fanout = append(c.nodes[f].Fanout, id)
	}
	return id, nil
}

// Counts reports the number of PIs, POs, combinational gates and DFFs.
func (c *Circuit) Counts() (pis, pos, gates, dffs int) {
	for i := range c.nodes {
		switch c.nodes[i].Kind {
		case KindPI:
			pis++
		case KindGate:
			gates++
		case KindDFF:
			dffs++
		}
	}
	return pis, len(c.pos), gates, dffs
}

// TopoOrder returns all node IDs in a combinational topological order:
// every gate appears after all of its non-DFF fanins. DFFs and PIs are
// sources (their current-cycle outputs do not depend on current-cycle
// inputs), so they appear before any gate that reads them. An error is
// returned if the combinational subgraph has a cycle.
func (c *Circuit) TopoOrder() ([]NodeID, error) {
	n := len(c.nodes)
	order := make([]NodeID, 0, n)
	indeg := make([]int32, n)
	// mark dedups multi-pin fanins with a per-gate epoch (the gate index
	// itself), one allocation for the whole pass. TopoOrder stays safe for
	// concurrent readers, so it does not borrow the circuit's dedup
	// scratch.
	mark := make([]int32, n)
	for i := range c.nodes {
		nd := &c.nodes[i]
		if nd.Kind != KindGate {
			continue // PIs and DFFs are sources
		}
		// Combinational in-degree counts only distinct gate fanins.
		epoch := int32(i) + 1
		for _, f := range nd.Fanin {
			if mark[f] == epoch {
				continue
			}
			mark[f] = epoch
			if c.nodes[f].Kind == KindGate {
				indeg[i]++
			}
		}
	}
	queue := make([]NodeID, 0, n)
	for i := range c.nodes {
		if c.nodes[i].Kind != KindGate || indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		if c.nodes[id].Kind != KindGate {
			// PI and DFF fanins never counted toward indeg (a DFF's
			// fanout belongs to the *next* cycle), so nothing to release.
			continue
		}
		for _, g := range c.nodes[id].Fanout {
			if c.nodes[g].Kind != KindGate {
				continue
			}
			indeg[g]--
			if indeg[g] == 0 {
				queue = append(queue, g)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("circuit %q: combinational cycle detected (%d of %d nodes ordered)", c.Name, len(order), n)
	}
	return order, nil
}

// Validate checks structural well-formedness: fanin arities, no
// combinational cycles, every non-PI node reachable-driven, and every DFF
// having exactly one data input.
func (c *Circuit) Validate() error {
	for i := range c.nodes {
		nd := &c.nodes[i]
		switch nd.Kind {
		case KindPI:
			if len(nd.Fanin) != 0 {
				return fmt.Errorf("circuit %q: PI %q has fanin", c.Name, nd.Name)
			}
		case KindDFF:
			if len(nd.Fanin) != 1 {
				return fmt.Errorf("circuit %q: DFF %q has %d inputs, want 1", c.Name, nd.Name, len(nd.Fanin))
			}
		case KindGate:
			if n := len(nd.Fanin); n < nd.Fn.MinInputs() || (nd.Fn.MaxInputs() >= 0 && n > nd.Fn.MaxInputs()) {
				return fmt.Errorf("circuit %q: gate %q (%s) has %d inputs", c.Name, nd.Name, nd.Fn, len(nd.Fanin))
			}
		}
	}
	if _, err := c.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Stats summarizes a circuit for reporting.
type Stats struct {
	PIs, POs, Gates, DFFs int
	// Depth is the maximum number of gates on any combinational path.
	Depth int
	// MaxFanout is the largest fanout of any node.
	MaxFanout int
}

// Stats computes summary statistics. The circuit must be valid.
func (c *Circuit) Stats() (Stats, error) {
	var s Stats
	s.PIs, s.POs, s.Gates, s.DFFs = c.Counts()
	order, err := c.TopoOrder()
	if err != nil {
		return Stats{}, err
	}
	depth := make([]int, len(c.nodes))
	for _, id := range order {
		nd := &c.nodes[id]
		if nd.Kind != KindGate {
			continue
		}
		d := 0
		for _, f := range nd.Fanin {
			if c.nodes[f].Kind == KindGate && depth[f] > d {
				d = depth[f]
			}
		}
		depth[id] = d + 1
		if depth[id] > s.Depth {
			s.Depth = depth[id]
		}
	}
	for i := range c.nodes {
		if len(c.nodes[i].Fanout) > s.MaxFanout {
			s.MaxFanout = len(c.nodes[i].Fanout)
		}
	}
	return s, nil
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{
		Name:   c.Name,
		nodes:  make([]Node, len(c.nodes)),
		byName: make(map[string]NodeID, len(c.byName)),
		pos:    append([]NodeID(nil), c.pos...),
		pis:    append([]NodeID(nil), c.pis...),
	}
	for i := range c.nodes {
		n := c.nodes[i]
		n.Fanin = append([]NodeID(nil), n.Fanin...)
		n.Fanout = append([]NodeID(nil), n.Fanout...)
		out.nodes[i] = n
	}
	for k, v := range c.byName {
		out.byName[k] = v
	}
	return out
}

// NodesOfKind returns all node IDs of the given kind in ascending order.
func (c *Circuit) NodesOfKind(k Kind) []NodeID {
	var out []NodeID
	for i := range c.nodes {
		if c.nodes[i].Kind == k {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// SortedNames returns all net names in lexicographic order (for
// deterministic output).
func (c *Circuit) SortedNames() []string {
	names := make([]string, 0, len(c.nodes))
	for i := range c.nodes {
		names = append(names, c.nodes[i].Name)
	}
	sort.Strings(names)
	return names
}

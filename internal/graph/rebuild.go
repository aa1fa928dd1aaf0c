package graph

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"serretime/internal/circuit"
)

// Rebuilt is a circuit materialized from a retimed graph.
type Rebuilt struct {
	// C is the retimed circuit.
	C *circuit.Circuit
	// Chains maps a driver net name (gate output or primary input) to the
	// DFF node IDs of its register chain in C, ordered from the driver
	// outward: Chains[x][0] reads x directly.
	Chains map[string][]circuit.NodeID
	// POTaps lists, for each primary output of the original circuit (in
	// c.POs() order), the node of C now driving it. Two original outputs
	// may map to the same node (shared chain tap), in which case C's own
	// PO list is shorter than POTaps.
	POTaps []circuit.NodeID
}

// Rebuild materializes the retiming r of graph g (extracted from circuit c
// by FromCircuit) into a new circuit. Register chains are max-shared per
// driver net, so the resulting flip-flop count equals g.SharedRegisters(r).
//
// Primary-input-to-primary-output connections that never pass a gate are
// preserved verbatim (they are not represented in the graph).
//
// The retimed circuit is numbered directly: the primary inputs in c's
// order, then each driver's register chain (drivers sorted by net name,
// the chain tapped outward as "<driver>$r<j>"), then the gates in c's
// order. Every pin is resolved by NodeID arithmetic on that numbering,
// so no net name is looked up; circuit.Assemble checks the names are
// unique and validates the result.
func Rebuild(c *circuit.Circuit, g *Graph, r Retiming) (*Rebuilt, error) {
	if g.vertexOf == nil {
		return nil, fmt.Errorf("graph: Rebuild requires a circuit-extracted graph")
	}
	if err := g.CheckLegal(r); err != nil {
		return nil, err
	}
	nc := c.NumNodes()
	vertex := make([]VertexID, nc) // c's gate nodes -> vertex
	for v := 1; v < len(g.nodeOf); v++ {
		if n := g.nodeOf[v]; n != circuit.InvalidNode {
			vertex[n] = VertexID(v)
		}
	}

	// Pass 1: the retimed register count of every gate pin and PO net,
	// resolved to its effective driver (a PI or a gate of c), and the
	// chain length each driver needs.
	pins := len(c.POs())
	for n := 0; n < nc; n++ {
		if nd := c.Node(circuit.NodeID(n)); nd.Kind == circuit.KindGate {
			pins += len(nd.Fanin)
		}
	}
	need := make([]int32, nc) // per driver node: the longest tap read
	// The resolved pins: every gate pin in (gate, pin) order, then every
	// PO net, as its effective driver and retimed register count.
	pinDrv := make([]circuit.NodeID, 0, pins)
	pinW := make([]int32, 0, pins)
	resolve := func(net circuit.NodeID, toV VertexID, po bool) error {
		drv, w, err := effectiveDriver(c, net)
		if err != nil {
			return err
		}
		dn := c.Node(drv)
		var nw int32
		switch {
		case dn.Kind == circuit.KindPI && po:
			nw = w // no graph edge: registers preserved verbatim
		case dn.Kind == circuit.KindPI:
			nw = w + r[toV]
		case dn.Kind == circuit.KindGate && po:
			nw = w - r[vertex[drv]]
		case dn.Kind == circuit.KindGate:
			nw = w + r[toV] - r[vertex[drv]]
		case po:
			return fmt.Errorf("graph: PO driven by %s", dn.Kind)
		default:
			return fmt.Errorf("graph: unresolvable driver %q", dn.Name)
		}
		if nw < 0 {
			what := "pin"
			if po {
				what = "PO"
			}
			return fmt.Errorf("graph: %s of %q gets %d registers", what, dn.Name, nw)
		}
		pinDrv = append(pinDrv, drv)
		pinW = append(pinW, nw)
		if nw > need[drv] {
			need[drv] = nw
		}
		return nil
	}
	for n := 0; n < nc; n++ {
		nd := c.Node(circuit.NodeID(n))
		if nd.Kind != circuit.KindGate {
			continue
		}
		for _, fin := range nd.Fanin {
			if err := resolve(fin, vertex[n], false); err != nil {
				return nil, err
			}
		}
	}
	gatePins := len(pinDrv)
	for _, po := range c.POs() {
		if err := resolve(po, Host, true); err != nil {
			return nil, err
		}
	}

	// Pass 2: number the retimed circuit. id0[d] is the new ID of driver
	// d itself (tap 0); chain[d] that of its first register (tap 1).
	pis := c.PIs()
	var drivers []circuit.NodeID
	taps := 0
	for d := 0; d < nc; d++ {
		if need[d] > 0 {
			drivers = append(drivers, circuit.NodeID(d))
			taps += int(need[d])
		}
	}
	slices.SortFunc(drivers, func(a, b circuit.NodeID) int {
		return strings.Compare(c.Node(a).Name, c.Node(b).Name)
	})
	id0 := make([]circuit.NodeID, nc)
	chain := make([]circuit.NodeID, nc)
	for i, pi := range pis {
		id0[pi] = circuit.NodeID(i)
	}
	next := circuit.NodeID(len(pis))
	for _, d := range drivers {
		chain[d] = next
		next += circuit.NodeID(need[d])
	}
	for n := 0; n < nc; n++ {
		if c.Node(circuit.NodeID(n)).Kind == circuit.KindGate {
			id0[n] = next
			next++
		}
	}
	tap := func(d circuit.NodeID, j int32) circuit.NodeID {
		if j == 0 {
			return id0[d]
		}
		return chain[d] + circuit.NodeID(j-1)
	}

	// Pass 3: emit. Every tap name is a substring of one string, and every
	// fanin list a window of one array.
	nodes := make([]circuit.Node, int(next))
	for i, pi := range pis {
		nodes[i] = circuit.Node{Name: c.Node(pi).Name, Kind: circuit.KindPI}
	}
	var sb strings.Builder
	size := 0
	for _, d := range drivers {
		for j := int32(1); j <= need[d]; j++ {
			size += len(c.Node(d).Name) + len("$r") + len(strconv.Itoa(int(j)))
		}
	}
	sb.Grow(size)
	ends := make([]int, 0, taps)
	for _, d := range drivers {
		name := c.Node(d).Name
		for j := int32(1); j <= need[d]; j++ {
			sb.WriteString(name)
			sb.WriteString("$r")
			sb.WriteString(strconv.Itoa(int(j)))
			ends = append(ends, sb.Len())
		}
	}
	names := sb.String()
	fanin := make([]circuit.NodeID, taps+gatePins)
	k, start := 0, 0
	for _, d := range drivers {
		for j := int32(1); j <= need[d]; j++ {
			fanin[k] = tap(d, j-1)
			id := tap(d, j)
			nodes[id] = circuit.Node{
				Name: names[start:ends[id-circuit.NodeID(len(pis))]],
				Kind: circuit.KindDFF, Fanin: fanin[k : k+1 : k+1],
			}
			start = ends[id-circuit.NodeID(len(pis))]
			k++
		}
	}
	p := 0
	for n := 0; n < nc; n++ {
		nd := c.Node(circuit.NodeID(n))
		if nd.Kind != circuit.KindGate {
			continue
		}
		lo := k
		for range nd.Fanin {
			fanin[k] = tap(pinDrv[p], pinW[p])
			k++
			p++
		}
		nodes[id0[n]] = circuit.Node{Name: nd.Name, Kind: circuit.KindGate, Fn: nd.Fn, Fanin: fanin[lo:k:k]}
	}
	out := &Rebuilt{
		POTaps: make([]circuit.NodeID, 0, len(pinDrv)-gatePins),
		Chains: make(map[string][]circuit.NodeID, len(drivers)),
	}
	for ; p < len(pinDrv); p++ {
		out.POTaps = append(out.POTaps, tap(pinDrv[p], pinW[p]))
	}
	rc, err := circuit.Assemble(c.Name+"_retimed", nodes, out.POTaps)
	if err != nil {
		return nil, fmt.Errorf("graph: rebuild: %w", err)
	}
	out.C = rc
	ids := make([]circuit.NodeID, taps)
	for i := range ids {
		ids[i] = circuit.NodeID(len(pis) + i)
	}
	for _, d := range drivers {
		lo := int(chain[d]) - len(pis)
		out.Chains[c.Node(d).Name] = ids[lo : lo+int(need[d]) : lo+int(need[d])]
	}
	return out, nil
}

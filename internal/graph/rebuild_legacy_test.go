package graph

// Rebuild as it was before it numbered the retimed circuit itself: two
// string-keyed maps (need, gateFanin) and a circuit.Builder resolving
// every pin by net name. Kept verbatim as the reference of
// TestRebuildMatchesLegacy.

import (
	"fmt"
	"sort"

	"serretime/internal/circuit"
)

// legacyRebuild materializes the retiming r of graph g (extracted from circuit c
// by FromCircuit) into a new circuit. Register chains are max-shared per
// driver net, so the resulting flip-flop count equals g.SharedRegisters(r).
//
// Primary-input-to-primary-output connections that never pass a gate are
// preserved verbatim (they are not represented in the graph).
func legacyRebuild(c *circuit.Circuit, g *Graph, r Retiming) (*Rebuilt, error) {
	if g.vertexOf == nil {
		return nil, fmt.Errorf("graph: Rebuild requires a circuit-extracted graph")
	}
	if err := g.CheckLegal(r); err != nil {
		return nil, err
	}

	// Pass 1: compute the retimed register count of every pin and PO net,
	// and the needed chain length per driver net.
	type pin struct {
		gate    circuit.NodeID // consuming gate (InvalidNode for a PO)
		pinIdx  int
		drvName string
		w       int32
	}
	var pins []pin
	need := make(map[string]int32) // driver net -> max chain length

	resolvePin := func(fin circuit.NodeID, toV VertexID) (string, int32, error) {
		drv, w, err := effectiveDriver(c, fin)
		if err != nil {
			return "", 0, err
		}
		dn := c.Node(drv)
		var fromV VertexID
		switch dn.Kind {
		case circuit.KindPI:
			fromV = Host
		case circuit.KindGate:
			fromV = g.vertexOf[drv]
		default:
			return "", 0, fmt.Errorf("graph: unresolvable driver %q", dn.Name)
		}
		var rTo int32
		if toV != Host {
			rTo = r[toV]
		}
		nw := w + rTo - r[fromV]
		if nw < 0 {
			return "", 0, fmt.Errorf("graph: pin of %q gets %d registers", dn.Name, nw)
		}
		return dn.Name, nw, nil
	}

	for _, n := range c.NodesOfKind(circuit.KindGate) {
		toV := g.vertexOf[n]
		for i, fin := range c.Node(n).Fanin {
			dname, nw, err := resolvePin(fin, toV)
			if err != nil {
				return nil, err
			}
			pins = append(pins, pin{gate: n, pinIdx: i, drvName: dname, w: nw})
			if nw > need[dname] {
				need[dname] = nw
			}
		}
	}
	type poPin struct {
		drvName string
		w       int32
	}
	var poPins []poPin
	for _, po := range c.POs() {
		drv, w, err := effectiveDriver(c, po)
		if err != nil {
			return nil, err
		}
		dn := c.Node(drv)
		var nw int32
		switch dn.Kind {
		case circuit.KindPI:
			nw = w // no graph edge: registers preserved verbatim
		case circuit.KindGate:
			nw = w - r[g.vertexOf[drv]]
		default:
			return nil, fmt.Errorf("graph: PO driven by %s", dn.Kind)
		}
		if nw < 0 {
			return nil, fmt.Errorf("graph: PO of %q gets %d registers", dn.Name, nw)
		}
		poPins = append(poPins, poPin{drvName: dn.Name, w: nw})
		if nw > need[dn.Name] {
			need[dn.Name] = nw
		}
	}

	// Pass 2: emit the retimed netlist.
	b := circuit.NewBuilder(c.Name + "_retimed")
	for _, pi := range c.PIs() {
		b.PI(c.Node(pi).Name)
	}
	tapName := func(drv string, j int32) string {
		if j == 0 {
			return drv
		}
		return fmt.Sprintf("%s$r%d", drv, j)
	}
	drivers := make([]string, 0, len(need))
	for drv := range need {
		drivers = append(drivers, drv)
	}
	sort.Strings(drivers) // deterministic node numbering
	for _, drv := range drivers {
		prev := drv
		for j := int32(1); j <= need[drv]; j++ {
			name := tapName(drv, j)
			b.DFF(name, prev)
			prev = name
		}
	}
	gateFanin := make(map[circuit.NodeID][]string)
	for _, n := range c.NodesOfKind(circuit.KindGate) {
		gateFanin[n] = make([]string, len(c.Node(n).Fanin))
	}
	for _, p := range pins {
		gateFanin[p.gate][p.pinIdx] = tapName(p.drvName, p.w)
	}
	for _, n := range c.NodesOfKind(circuit.KindGate) {
		nd := c.Node(n)
		b.Gate(nd.Name, nd.Fn, gateFanin[n]...)
	}
	for _, pp := range poPins {
		b.PO(tapName(pp.drvName, pp.w))
	}
	rc, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graph: rebuild: %w", err)
	}
	out := &Rebuilt{C: rc, Chains: make(map[string][]circuit.NodeID, len(need))}
	for _, pp := range poPins {
		id, ok := rc.Lookup(tapName(pp.drvName, pp.w))
		if !ok {
			return nil, fmt.Errorf("graph: rebuild lost PO tap %s", tapName(pp.drvName, pp.w))
		}
		out.POTaps = append(out.POTaps, id)
	}
	for drv, n := range need {
		ids := make([]circuit.NodeID, n)
		for j := int32(1); j <= n; j++ {
			id, ok := rc.Lookup(tapName(drv, j))
			if !ok {
				return nil, fmt.Errorf("graph: rebuild lost chain tap %s", tapName(drv, j))
			}
			ids[j-1] = id
		}
		if n > 0 {
			out.Chains[drv] = ids
		}
	}
	return out, nil
}

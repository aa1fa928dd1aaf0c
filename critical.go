package serretime

import (
	"fmt"
	"sort"

	"serretime/internal/elw"
	"serretime/internal/graph"
)

// Contributor is one element's share of the design's SER.
type Contributor struct {
	// Name is the gate output net (for kind "gate") or the driving net of
	// the register chain (for kind "register").
	Name string
	// Kind is "gate" or "register".
	Kind string
	// SER is the element's eq. (4) contribution; Share is its fraction of
	// the total.
	SER, Share float64
	// Obs is the element's observability, Window its |ELW|.
	Obs, Window float64
}

// CriticalElements ranks the top-n SER contributors of the unretimed
// design at clock period phi (0 = critical path), splitting eq. (4) into
// its per-gate and per-register-chain terms. This is the view a designer
// uses to decide where hardening or retiming will pay off.
func (d *Design) CriticalElements(phi float64, n int, opt AnalysisOptions) ([]Contributor, error) {
	if err := d.ensureObs(opt); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	g, err := d.graph()
	if err != nil {
		return nil, err
	}
	r := graph.NewRetiming(g)
	if phi <= 0 {
		_, crit, err := g.ArrivalTimes(r)
		if err != nil {
			return nil, err
		}
		phi = crit
	}
	p := elwParams(phi)
	elws, err := elw.Exact(g, r, p, opt.MaxIntervals)
	if err != nil {
		return nil, err
	}
	lab, err := elw.ComputeLabels(g, r, p)
	if err != nil {
		return nil, err
	}
	var out []Contributor
	var total float64
	for v := 1; v < g.NumVertices(); v++ {
		w := elws[v].Measure()
		ser := d.gateObs[v] * d.rates[v] * w / phi
		total += ser
		if ser > 0 {
			out = append(out, Contributor{
				Name: g.Name(graph.VertexID(v)), Kind: "gate",
				SER: ser, Obs: d.gateObs[v], Window: w,
			})
		}
	}
	base := p.Ts + p.Th
	for i := 0; i < g.NumEdges(); i++ {
		eid := graph.EdgeID(i)
		k := g.WR(eid, r)
		if k <= 0 {
			continue
		}
		e := g.Edge(eid)
		var adjacent float64
		if e.To == graph.Host {
			adjacent = base
		} else {
			adjacent = elws[e.To].Measure()
			if lab.HasWindow[e.To] {
				if shortfall := p.Th - lab.HoldSlack(g, p, eid); shortfall > 0 {
					adjacent += shortfall
				}
			}
		}
		win := adjacent + float64(k-1)*base
		ser := d.edgeObs[i] * d.regRate * win / phi
		total += ser
		if ser > 0 {
			name := "<input>"
			if e.From != graph.Host {
				name = g.Name(e.From)
			} else if int(e.SrcPort) >= 0 && int(e.SrcPort) < len(d.c.PIs()) {
				name = d.c.Node(d.c.PIs()[e.SrcPort]).Name
			}
			out = append(out, Contributor{
				Name: fmt.Sprintf("%s (x%d)", name, k), Kind: "register",
				SER: ser, Obs: d.edgeObs[i], Window: win,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SER > out[j].SER })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	if total > 0 {
		for i := range out {
			out[i].Share = out[i].SER / total
		}
	}
	return out, nil
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"serretime"
	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/core"
	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/obs"
	"serretime/internal/retime"
	"serretime/internal/ser"
	"serretime/internal/sim"
	"serretime/internal/store"
)

// The daemon's defaults for a submission with no option parameters:
// MinObsWin on the closure engine, exact observability over 15 frames of
// 4 signature words, ε = 0.10, a 5-minute attempt budget, and one
// analysis worker per solve.
const (
	frames      = 15
	words       = 4
	simSeed     = 1
	epsilon     = 0.10
	solveBudget = 5 * time.Minute
)

// serviceOptions are the options serretimed solves a default submission
// with; their canonical key is part of every job ID.
func serviceOptions() serretime.RobustOptions {
	return serretime.RobustOptions{
		RetimeOptions: serretime.RetimeOptions{Workers: 1},
		Timeout:       solveBudget,
	}
}

// replayer calls the layers of the daemon's request path directly, in
// the order the daemon calls them, timing each call as a span when t is
// set. It keeps its own job store, and for the session workload its own
// copy of the session netlist.
type replayer struct {
	t      *tracer
	st     *store.Disk
	optKey string
	cur    *circuit.Circuit
}

func newReplayer(t *tracer, storeDir string) (*replayer, error) {
	p := &replayer{t: t, optKey: serviceOptions().CanonicalKey()}
	if storeDir == "" {
		return p, nil
	}
	st, err := store.Open(store.Options{Dir: storeDir, Sync: store.SyncAlways})
	if err != nil {
		return nil, err
	}
	if _, _, err := st.Recover(); err != nil {
		return nil, err
	}
	p.st = st
	return p, nil
}

func (p *replayer) close() {
	if p.st != nil {
		_ = p.st.Close()
	}
}

// replayOut is what a replayed request produced, to be compared with
// what the daemon answered for the same input.
type replayOut struct {
	key    string   // job ID (batch requests)
	result [32]byte // SHA-256 of the retimed netlist (solving requests)
	solved bool
	dser   float64
}

// parse is the daemon's ingress: serretime.Parse of the body, which is
// the .bench parser plus retiming-graph extraction.
func (p *replayer) parse(name string, body []byte) (c *circuit.Circuit, g *graph.Graph, err error) {
	base := strings.TrimSuffix(filepath.Base(name), filepath.Ext(name))
	if err = p.t.span("benchfmt.parse", func() (err error) {
		c, err = benchfmt.Parse(bytes.NewReader(body), base)
		return err
	}); err != nil {
		return nil, nil, err
	}
	err = p.t.span("graph.from_circuit", func() (err error) {
		g, err = graph.FromCircuit(c, nil)
		return err
	})
	return c, g, err
}

// jobKey is service.JobKey: the SHA-256 of the canonical .bench bytes, a
// NUL and the canonical option key. The replay checks it against the ID
// the daemon assigned.
func (p *replayer) jobKey(c *circuit.Circuit) (key string, canon []byte, err error) {
	err = p.t.span("service.job_key", func() error {
		var buf bytes.Buffer
		if err := p.t.span("benchfmt.write", func() error { return benchfmt.Write(&buf, c) }); err != nil {
			return err
		}
		h := sha256.New()
		h.Write(buf.Bytes())
		h.Write([]byte{0})
		h.Write([]byte(p.optKey))
		key, canon = hex.EncodeToString(h.Sum(nil)), buf.Bytes()
		return nil
	})
	return key, canon, err
}

// read replays a cache hit: ingress and job key, no solve.
func (p *replayer) read(name string, body []byte) (replayOut, error) {
	c, _, err := p.parse(name, body)
	if err != nil {
		return replayOut{}, err
	}
	key, _, err := p.jobKey(c)
	return replayOut{key: key}, err
}

// batch replays a fresh POST /v1/retime job: ingress, job key, journaled
// submission, the solve, the result write and the journaled completion.
func (p *replayer) batch(name string, body []byte) (replayOut, error) {
	c, g, err := p.parse(name, body)
	if err != nil {
		return replayOut{}, err
	}
	key, canon, err := p.jobKey(c)
	if err != nil {
		return replayOut{}, err
	}
	if err := p.t.span("store.journal_submitted", func() error {
		return p.st.JournalSubmitted(key, c.Name, canon, []byte(`{"timeout":300000000000}`), p.optKey)
	}); err != nil {
		return replayOut{}, err
	}
	if err := p.t.span("store.journal_running", func() error { return p.st.JournalRunning(key) }); err != nil {
		return replayOut{}, err
	}
	out, result, err := p.solve(c, g, false)
	if err != nil {
		return out, err
	}
	out.key = key
	err = p.t.span("store.journal_done", func() error {
		return p.st.JournalDone(key, store.ResultMeta{DeltaSER: out.dser}, result, nil)
	})
	return out, err
}

// delta replays POST /v1/sessions/{id}/delta on the replayer's session
// netlist: apply the ops to a clone, extract its graph, solve seeded, and
// write the result. Sessions are not journaled.
func (p *replayer) delta(ops []serretime.DeltaOp) (replayOut, error) {
	var c *circuit.Circuit
	if err := p.t.span("serretime.apply_delta", func() error {
		c = p.cur.Clone()
		_, err := serretime.ApplyDeltaOps(c, ops)
		return err
	}); err != nil {
		return replayOut{}, err
	}
	var g *graph.Graph
	if err := p.t.span("graph.from_circuit", func() (err error) {
		g, err = graph.FromCircuit(c, nil)
		return err
	}); err != nil {
		return replayOut{}, err
	}
	out, _, err := p.solve(c, g, true)
	if err == nil {
		p.cur = c
	}
	return out, err
}

// solve is the first degradation tier of Design.RetimeRobust with the
// service defaults — observability analysis, Section V initialization,
// gains, minimization, rebuild and SER evaluation — followed by the
// .bench write of the retimed netlist. seeded is the session path's
// constraint seeding.
func (p *replayer) solve(c *circuit.Circuit, g *graph.Graph, seeded bool) (replayOut, []byte, error) {
	ctx := context.Background()
	t := p.t
	var out replayOut
	var ores *obs.Result
	if err := t.span("obs.compute", func() (err error) {
		ores, err = obs.ComputeDesign(ctx, c,
			sim.Config{Words: words, Frames: frames, Seed: simSeed, Workers: 1},
			obs.Options{Accuracy: obs.AccuracyExact, Workers: 1})
		return err
	}); err != nil {
		return out, nil, err
	}
	var gateObs, edgeObs, rates []float64
	if err := t.span("ser.obs_map", func() (err error) {
		if gateObs, err = ser.VertexObs(c, g, ores); err != nil {
			return err
		}
		if edgeObs, err = ser.EdgeObs(c, g, gateObs, ores); err != nil {
			return err
		}
		rates, err = ser.VertexRates(c, g, nil)
		return err
	}); err != nil {
		return out, nil, err
	}
	var init *retime.Init
	if err := t.span("retime.init", func() (err error) {
		init, err = retime.InitializeCtx(ctx, g, retime.Options{
			Ts: serretime.DefaultTs, Th: serretime.DefaultTh, Epsilon: epsilon, Workers: 1,
		})
		return err
	}); err != nil {
		return out, nil, err
	}
	var base *graph.Graph
	if err := t.span("graph.rebase", func() (err error) {
		base, err = g.Rebase(init.R)
		return err
	}); err != nil {
		return out, nil, err
	}
	var gains, obsInt []int64
	if err := t.span("core.gains", func() (err error) {
		gains, obsInt, err = core.Gains(base, gateObs, edgeObs, 64*words)
		return err
	}); err != nil {
		return out, nil, err
	}
	copt := core.Options{
		Phi: init.Phi, Ts: serretime.DefaultTs, Th: serretime.DefaultTh, Rmin: init.Rmin,
		ELWConstraints: true, SeedLabels: init.Labels, Workers: 1,
	}
	if seeded {
		seedConstraints(&copt)
	}
	var cres *core.Result
	if err := t.span("core.minimize", func() (err error) {
		cres, err = core.MinimizeCtx(ctx, base, gains, obsInt, copt)
		return err
	}); err != nil {
		return out, nil, err
	}
	t.count("core.steps", int64(cres.Steps))
	t.count("core.rounds", int64(cres.Rounds))
	t.count("core.solves", 1)
	total := init.R.Clone()
	for v := range total {
		total[v] += cres.R[v]
	}
	var rb *graph.Rebuilt
	if err := t.span("graph.rebuild", func() (err error) {
		if rb, err = graph.Rebuild(c, g, total); err != nil {
			return err
		}
		return t.span("graph.from_circuit", func() error {
			_, err := graph.FromCircuit(rb.C, nil)
			return err
		})
	}); err != nil {
		return out, nil, err
	}
	in := ser.Inputs{
		GateObs: gateObs, EdgeObs: edgeObs, GateRate: rates,
		RegRate: ser.SyntheticRates{}.RegisterRate(),
		Params:  elw.Params{Phi: init.Phi, Ts: serretime.DefaultTs, Th: serretime.DefaultTh},
	}
	var before, after *ser.Analysis
	if err := t.span("ser.compute", func() (err error) {
		if before, err = ser.Compute(g, graph.NewRetiming(g), in); err != nil {
			return err
		}
		after, err = ser.Compute(g, total, in)
		return err
	}); err != nil {
		return out, nil, err
	}
	if before.Total != 0 {
		out.dser = 100 * (after.Total - before.Total) / before.Total
	}
	var buf bytes.Buffer
	if err := t.span("benchfmt.write", func() error { return benchfmt.Write(&buf, rb.C) }); err != nil {
		return out, nil, err
	}
	out.result = sha256.Sum256(buf.Bytes())
	out.solved = true
	return out, buf.Bytes(), nil
}

// seedConstraints turns on the session path's bulk seeding of the
// closure engine (core.Options.WarmStart). The field is set by name so
// the replay keeps building once seeding becomes unconditional and the
// option is removed.
func seedConstraints(o *core.Options) {
	if f := reflect.ValueOf(o).Elem().FieldByName("WarmStart"); f.IsValid() && f.Kind() == reflect.Bool {
		f.SetBool(true)
	}
}

// replayStep replays one request the daemon served. want is the daemon's
// answer.
type replayStep struct {
	kind string // "batch", "read" or "delta"
	want replayOut
	run  func(p *replayer) (replayOut, error)
}

// replayResult is the per-layer picture of one replay.
type replayResult struct {
	tr            *tracer
	plain, traced time.Duration // summed request wall times, untraced and traced
	requests      int
	mismatches    int
	firstMismatch string
	recover       time.Duration // store recovery of the daemon's last boot
}

// replay runs every step twice, untraced and traced, each pass on its
// own replayer, and compares both answers with the daemon's. A session
// workload passes its base netlist as session.
func replay(steps []replayStep, dir string, session *circuit.Circuit, journal bool) (*replayResult, error) {
	storeDir := func(name string) string {
		if !journal {
			return ""
		}
		return filepath.Join(dir, name)
	}
	plain, err := newReplayer(nil, storeDir("replay-plain"))
	if err != nil {
		return nil, err
	}
	defer plain.close()
	rr := &replayResult{tr: newTracer(), requests: len(steps)}
	traced, err := newReplayer(rr.tr, storeDir("replay-traced"))
	if err != nil {
		return nil, err
	}
	defer traced.close()
	if session != nil {
		plain.cur, traced.cur = session, session
	}
	for i, s := range steps {
		// Alternate which pass goes first so warm-up favours neither.
		var a, b replayOut
		runPlain := func() (err error) {
			start := time.Now()
			a, err = s.run(plain)
			rr.plain += time.Since(start)
			return err
		}
		runTraced := func() (err error) {
			rr.tr.request(i, "request."+s.kind)
			start := time.Now()
			b, err = s.run(traced)
			rr.traced += time.Since(start)
			rr.tr.done()
			return err
		}
		first, second := runPlain, runTraced
		if i%2 == 1 {
			first, second = runTraced, runPlain
		}
		if err := first(); err != nil {
			return nil, fmt.Errorf("replay step %d (%s): %w", i, s.kind, err)
		}
		if err := second(); err != nil {
			return nil, fmt.Errorf("replay step %d (%s): %w", i, s.kind, err)
		}
		for _, got := range []replayOut{a, b} {
			if msg := s.want.diff(got); msg != "" {
				if rr.mismatches == 0 {
					rr.firstMismatch = fmt.Sprintf("step %d (%s): %s", i, s.kind, msg)
				}
				rr.mismatches++
			}
		}
	}
	return rr, nil
}

// diff explains how a replayed answer differs from the daemon's, or
// returns "" when they agree.
func (want replayOut) diff(got replayOut) string {
	switch {
	case want.key != "" && want.key != got.key:
		return fmt.Sprintf("job key %.12s, daemon %.12s", got.key, want.key)
	case want.solved && got.result != want.result:
		return fmt.Sprintf("result sha256 %x, daemon %x", got.result[:6], want.result[:6])
	case want.solved && got.dser != want.dser:
		return fmt.Sprintf("ΔSER %v, daemon %v", got.dser, want.dser)
	}
	return ""
}

// layerMetrics turns a replay into the per-layer figures: self time per
// replayed request for each layer, work counts per solve, and the
// trace's coverage and overhead against the untraced replay.
func (rr *replayResult) layerMetrics() map[string]float64 {
	m := map[string]float64{}
	self := selfTimes(rr.tr.spans)
	var spanned time.Duration
	for name, d := range self {
		if strings.HasPrefix(name, "request.") {
			continue
		}
		spanned += d
		m[name+"_s"] = d.Seconds() / float64(rr.requests)
	}
	if n := rr.tr.counts["core.solves"]; n > 0 {
		m["core.steps"] = float64(rr.tr.counts["core.steps"]) / float64(n)
		m["core.rounds"] = float64(rr.tr.counts["core.rounds"]) / float64(n)
	}
	m["trace.coverage_frac"] = spanned.Seconds() / rr.plain.Seconds()
	m["trace.overhead_frac"] = rr.traced.Seconds()/rr.plain.Seconds() - 1
	m["store.recover_s"] = rr.recover.Seconds()
	return m
}

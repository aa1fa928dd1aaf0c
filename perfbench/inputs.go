package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"

	"serretime"
	"serretime/internal/benchfmt"
	"serretime/internal/eco"
	"serretime/internal/gen"
)

// input is one request's payload. The inputs of a workload form a
// numbered stream that depends only on the workload seed; request i of a
// run always carries input i.
type input struct {
	kind  string // "batch", "read", "write" or "delta"
	name  string // file name sent with the netlist (selects the format)
	bench []byte // netlist sent (batch, read, write)
	ops   []serretime.DeltaOp
	// ref is the netlist whose cold solve is the expected result (for a
	// delta, the session netlist after it), and refKey names it so
	// repeated reads of one circuit are checked once.
	ref    []byte
	refKey string
}

// mix derives a generator seed from the workload seed, a stream tag and
// an index.
func mix(seed int64, tag string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, tag, i)
	if s := int64(h.Sum64() >> 1); s != 0 {
		return s
	}
	return 1
}

func generate(s gen.Spec) ([]byte, error) {
	c, err := gen.Generate(s)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := benchfmt.Write(&buf, c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// inputStream makes inputs on demand, in index order, and keeps them.
type inputStream struct {
	mu   sync.Mutex
	make func(i int) (input, error)
	memo []input
}

// get returns input i, making every earlier one first.
func (s *inputStream) get(i int) (input, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.memo) <= i {
		in, err := s.make(len(s.memo))
		if err != nil {
			return input{}, err
		}
		s.memo = append(s.memo, in)
	}
	return s.memo[i], nil
}

// tableICap bounds the gate count of a Table I substitute: each circuit
// is shrunk by the smallest integer factor that brings it under the cap,
// so the 21 rows span one size class and a pass costs about the same on
// every seed.
const tableICap = 2000

// tableIStream passes the 21 Table I substitutes round-robin; pass p
// regenerates each from a seed of its own, so no submission is a cache
// hit.
func tableIStream(seed int64) *inputStream {
	return &inputStream{make: func(i int) (input, error) {
		row := gen.TableI[i%len(gen.TableI)]
		spec := row.Scale((row.Gates + tableICap - 1) / tableICap).Spec
		spec.Name = fmt.Sprintf("%s_p%d", row.Name, i/len(gen.TableI))
		spec.Seed = mix(seed, "tablei", i)
		b, err := generate(spec)
		if err != nil {
			return input{}, err
		}
		return input{kind: "batch", name: spec.Name + ".bench", bench: b, ref: b, refKey: spec.Name}, nil
	}}
}

// ecoBase is the session's netlist: the par6000 circuit of testdata,
// regenerated from its spec.
func ecoBase() ([]byte, error) {
	return generate(gen.Spec{Name: "par6000", Gates: 6000, Conns: 13200, FFs: 1200})
}

// ecoStream streams single-change deltas of the session netlist from
// internal/eco, seeded by the workload seed. The generator mirrors the
// session, so after delta i its netlist is what the daemon's session
// holds.
func ecoStream(seed int64, base []byte) (*inputStream, error) {
	mirror, err := benchfmt.Parse(bytes.NewReader(base), "par6000")
	if err != nil {
		return nil, err
	}
	g := eco.NewGen(mirror, seed)
	return &inputStream{make: func(i int) (input, error) {
		ops, err := g.Next()
		if err != nil {
			return input{}, err
		}
		ref, err := g.Bench()
		if err != nil {
			return input{}, err
		}
		return input{kind: "delta", name: "par6000.bench", ops: ops, ref: ref, refKey: fmt.Sprint("delta", i)}, nil
	}}, nil
}

// Ingest mix: even requests re-read one of ingestBig pre-solved large
// circuits, odd ones write a fresh small circuit.
const (
	ingestBig   = 4
	ingestGates = 300
)

func ingestBigInput(seed int64, b int) (input, error) {
	name := fmt.Sprintf("big%d", b)
	bench, err := generate(gen.Spec{Name: name, Gates: 6000, Conns: 13200, FFs: 1200, Seed: mix(seed, "big", b)})
	return input{kind: "read", name: name + ".bench", bench: bench, ref: bench, refKey: name}, err
}

func ingestStream(seed int64, bigs []input) *inputStream {
	return &inputStream{make: func(i int) (input, error) {
		if i%2 == 0 {
			return bigs[(i/2)%len(bigs)], nil
		}
		return ingestFreshInput(seed, i/2)
	}}
}

// ingestFreshInput is the j-th fresh small circuit of the ingest mix.
func ingestFreshInput(seed int64, j int) (input, error) {
	name := fmt.Sprintf("fresh%d", j)
	bench, err := generate(gen.Spec{
		Name: name, Gates: ingestGates, Conns: ingestGates * 11 / 5, FFs: ingestGates / 5,
		Seed: mix(seed, "fresh", j),
	})
	return input{kind: "write", name: name + ".bench", bench: bench, ref: bench, refKey: name}, err
}

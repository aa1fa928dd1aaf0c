package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"os"
	"testing"

	"serretime"
	"serretime/internal/benchfmt"
	"serretime/internal/eco"
	"serretime/internal/service"
)

// The replayed pipeline must be the daemon's: for the same netlist it
// produces the job ID and the retimed bytes the service does.
func TestReplayMatchesService(t *testing.T) {
	svc := service.New(context.Background(), service.Config{Workers: 1})
	defer svc.Drain(context.Background())
	p, err := newReplayer(newTracer(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	fresh, err := ingestFreshInput(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	netlists := map[string][]byte{fresh.name: fresh.bench}
	for _, file := range []string{"s27.bench", "pipeline4.bench"} {
		if netlists[file], err = os.ReadFile("../testdata/" + file); err != nil {
			t.Fatal(err)
		}
	}
	for file, body := range netlists {
		d, err := serretime.Parse(bytes.NewReader(body), file)
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := svc.Submit(d, serretime.RobustOptions{})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done
		want, err := svc.Result(j)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.batch(file, body)
		if err != nil {
			t.Fatalf("%s: replay: %v", file, err)
		}
		if got.key != j.ID {
			t.Errorf("%s: replay job key %.12s, service %.12s", file, got.key, j.ID)
		}
		if got.result != sha256.Sum256(want) {
			t.Errorf("%s: replayed result differs from the service's", file)
		}
		if v := svc.View(j); got.dser != v.DeltaSER {
			t.Errorf("%s: replay ΔSER %v, service %v", file, got.dser, v.DeltaSER)
		}
		read, err := p.read(file, body)
		if err != nil || read.key != j.ID {
			t.Errorf("%s: replayed read key %.12s (%v), service %.12s", file, read.key, err, j.ID)
		}
	}
}

// A replayed session delta matches the warm session's result.
func TestReplayDeltaMatchesSession(t *testing.T) {
	body, err := os.ReadFile("../testdata/pipeline4.bench")
	if err != nil {
		t.Fatal(err)
	}
	c, err := benchfmt.Parse(bytes.NewReader(body), "pipeline4")
	if err != nil {
		t.Fatal(err)
	}
	var canon bytes.Buffer
	if err := benchfmt.Write(&canon, c); err != nil {
		t.Fatal(err)
	}
	d, err := serretime.Parse(bytes.NewReader(canon.Bytes()), "pipeline4.bench")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := serretime.NewWarmState(ctx, d, serviceOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := benchfmt.Parse(bytes.NewReader(canon.Bytes()), "pipeline4")
	if err != nil {
		t.Fatal(err)
	}
	p, err := newReplayer(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	p.cur = base
	mirror, err := benchfmt.Parse(bytes.NewReader(canon.Bytes()), "pipeline4")
	if err != nil {
		t.Fatal(err)
	}
	g := eco.NewGen(mirror, 3)
	for i := 0; i < 6; i++ {
		ops, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := w.RetimeDelta(ctx, ops, serviceOptions())
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := res.Retimed.WriteBench(&want); err != nil {
			t.Fatal(err)
		}
		got, err := p.delta(ops)
		if err != nil {
			t.Fatalf("delta %d: replay: %v", i, err)
		}
		if got.result != sha256.Sum256(want.Bytes()) || got.dser != res.DeltaSER() {
			t.Errorf("delta %d: replay differs from the session (ΔSER %v vs %v)", i, got.dser, res.DeltaSER())
		}
	}
}

// Inputs depend on the workload seed and nothing else.
func TestInputStreamsAreSeeded(t *testing.T) {
	for _, w := range []*workload{mustWorkload(t, "tablei-batch"), mustWorkload(t, "ingest-mix")} {
		first := func(seed int64) []byte {
			r := &run{w: w, seed: seed}
			if err := w.prepare(r); err != nil {
				t.Fatal(err)
			}
			in, err := r.stream.get(1)
			if err != nil {
				t.Fatal(err)
			}
			return in.bench
		}
		if !bytes.Equal(first(5), first(5)) {
			t.Errorf("%s: same seed, different inputs", w.name)
		}
		if bytes.Equal(first(5), first(6)) {
			t.Errorf("%s: different seeds, same inputs", w.name)
		}
	}
}

func TestGoldenFilesParse(t *testing.T) {
	for _, w := range workloads {
		g, err := loadGolden(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(g) < minSamples(0.9) {
			t.Errorf("%s: %d golden digests, fewer than one run's requests", w.name, len(g))
		}
	}
}

func mustWorkload(t *testing.T, name string) *workload {
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

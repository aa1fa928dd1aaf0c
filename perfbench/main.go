// Command perfbench is serretime's end-to-end benchmark. It boots the
// real serretimed as a child process (defaults, except a loopback
// address and a data directory under -workdir), drives one workload
// against it from a closed-loop client, checks every result against an
// independent reference, and prints the metrics as one JSON line:
//
//	perfbench -workload tablei-batch -seed 1 -seconds 10 -trace 0 \
//	          -daemon path/to/serretimed -workdir DIR
//
// With -trace 1 the run also replays its first requests in process,
// calling each layer's functions in the order the daemon does with a
// span around each call, and reports per-layer figures instead. run.sh
// builds both binaries from the checkout and runs this command;
// README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
)

func main() { os.Exit(mainCode(os.Args[1:])) }

func mainCode(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: tablei-batch, eco-session or ingest-mix")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the inputs depend on nothing else")
	seconds := fs.Float64("seconds", 10, "timed window; a run also sends at least 100 requests")
	traceFlag := fs.Int("trace", 0, "1 = traced run: report per-layer instead of end-to-end metrics")
	bin := fs.String("daemon", "", "serretimed binary to benchmark")
	workdir := fs.String("workdir", "", "directory for data directories, logs and the span dump")
	golden := fs.Int("write-golden", 0, "write golden digests for the first N inputs of the default seed and exit")
	goldenDir := fs.String("golden-dir", "golden", "directory -write-golden writes to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *golden > 0 {
		if err := writeGolden(w, *golden, *goldenDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *bin == "" || *workdir == "" || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -daemon, -workdir, -seconds > 0 and -trace 0|1")
		return 2
	}
	r := &run{w: w, seed: *seed, trace: *traceFlag == 1, bin: *bin, workdir: *workdir}
	res, err := r.execute(time.Duration(*seconds * float64(time.Second)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark invocation.
type run struct {
	w       *workload
	seed    int64
	trace   bool
	bin     string
	workdir string
	dir     string // this run's scratch directory under workdir

	stream  *inputStream
	ecoBase []byte
}

// boot starts a daemon on a fresh data directory for set-up rep.
func (r *run) boot(e *env, rep int) error {
	return r.start(e, filepath.Join(r.dir, fmt.Sprintf("data%d", rep)))
}

func (r *run) start(e *env, dataDir string) error {
	d, err := startDaemon(r.bin, dataDir, filepath.Join(r.dir, "serretimed.log"))
	if err != nil {
		return err
	}
	e.d, e.c = d, newClient(d.base)
	return nil
}

func (r *run) execute(window time.Duration) (*result, error) {
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.workdir, r.w.name+"-")
	if err != nil {
		return nil, err
	}
	r.dir = dir
	defer os.RemoveAll(dir)
	if err := r.w.prepare(r); err != nil {
		return nil, err
	}
	if _, err := r.stream.get(r.w.prefetch - 1); err != nil {
		return nil, err
	}
	golden, err := loadGolden(r.w.name)
	if err != nil {
		return nil, err
	}

	e := &env{}
	defer func() { e.d.kill() }()
	var setups []time.Duration
	for rep := 0; rep < r.w.setups; rep++ {
		if rep > 0 {
			if err := e.stop(); err != nil {
				return nil, err
			}
			e = &env{}
		}
		start := time.Now()
		if err := r.w.setup(r, e, rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
	}

	cpu0, err := e.d.cpuTime()
	if err != nil {
		return nil, err
	}
	// Peak RSS is read when the run's first minSamples requests have
	// finished: the daemon keeps every finished job, so a later reading
	// would grow with the throughput of the run.
	var rss float64
	var rssErr error
	samples, elapsed := closedLoop(r.w.clients, window, minSamples(0.9), func(i int) sample {
		return timedRequest(r.w, e, r.stream, i)
	}, func() { rss, rssErr = e.d.peakRSS() })
	cpu1, err := e.d.cpuTime()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	var vals map[string]float64
	if r.trace {
		if vals, err = serviceMetrics(e, samples); err != nil {
			return nil, err
		}
	}
	if err := e.stop(); err != nil {
		return nil, fmt.Errorf("stopping serretimed: %w", err)
	}

	failed, err := r.check(samples, golden)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: failed == 0, Attempted: len(samples), Failed: failed, Metrics: map[string]value{}}
	var lats []time.Duration
	var ratio float64
	for _, s := range samples {
		if s.err == nil {
			lats = append(lats, s.lat)
			ratio += 100 + s.dser
		}
	}
	ok := len(lats)
	if ok == 0 {
		return res, nil
	}
	if !r.trace {
		secs := make([]float64, len(lats))
		for i, d := range lats {
			secs[i] = d.Seconds()
		}
		vals = map[string]float64{
			"setup_s":        medianSeconds(setups),
			"throughput_rps": float64(ok) / elapsed.Seconds(),
			"latency_p50_s":  quantile(secs, 0.5),
			"latency_p90_s":  quantile(secs, 0.9),
			"cpu_s_per_req":  (cpu1 - cpu0).Seconds() / float64(ok),
			"peak_rss_mb":    rss,
			"ser_ratio_pct":  ratio / float64(ok),
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests (%d failed) in %.2fs; %d set-ups\n",
			r.w.name, r.seed, len(samples), failed, elapsed.Seconds(), len(setups))
		byKind := map[string][]float64{}
		for _, s := range samples {
			if s.err == nil {
				byKind[s.kind] = append(byKind[s.kind], s.lat.Seconds())
			}
		}
		for kind, xs := range byKind {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests, latency p50 %.4fs p90 %.4fs\n",
				kind, len(xs), quantile(xs, 0.5), quantile(xs, 0.9))
		}
		return res.fill(endToEnd, vals)
	}

	rr, err := r.replay(samples, e)
	if err != nil {
		return nil, err
	}
	for k, v := range rr.layerMetrics() {
		vals[k] = v
	}
	if rr.mismatches > 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: replay differs from the daemon in %d answers; first: %s\n", rr.mismatches, rr.firstMismatch)
	}
	path := filepath.Join(r.workdir, fmt.Sprintf("trace-%s-seed%d.json", r.w.name, r.seed))
	if err := rr.tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: replayed %d requests; spans in %s\n", r.w.name, r.seed, rr.requests, path)
	return res.fill(perLayer, vals)
}

// fill reports every listed metric, zero when its layer did not run in
// this workload.
func (res *result) fill(ms []metric, vals map[string]float64) (*result, error) {
	for _, m := range ms {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	return res, nil
}

// check compares every answered request with its reference and marks
// wrong answers as failed. It returns the number of failed requests.
func (r *run) check(samples []sample, golden []expect) (int, error) {
	var idx []int
	maxIdx := 0
	for _, s := range samples {
		if s.err == nil {
			idx = append(idx, s.i)
		}
		maxIdx = max(maxIdx, s.i)
	}
	ins := make([]input, maxIdx+1)
	for _, i := range idx {
		in, err := r.stream.get(i)
		if err != nil {
			return 0, err
		}
		ins[i] = in
	}
	refs, err := references(ins, idx, golden, r.seed)
	if err != nil {
		return 0, err
	}
	failed := 0
	var first error
	for k := range samples {
		s := &samples[k]
		if s.err == nil {
			if want := refs[s.i]; s.result != want.sha || s.dser != want.dser {
				s.err = fmt.Errorf("request %d (%s): result %x ΔSER %v, reference %x ΔSER %v",
					s.i, ins[s.i].name, s.result[:6], s.dser, want.sha[:6], want.dser)
			}
		}
		if s.err != nil {
			failed++
			if first == nil {
				first = s.err
			}
		}
	}
	if first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed; first: %v\n", failed, len(samples), first)
	}
	return failed, nil
}

// replay replays the run's first requests in process, traced and
// untraced, and measures the store recovery the daemon's last boot did.
func (r *run) replay(samples []sample, e *env) (*replayResult, error) {
	byIdx := map[int]sample{}
	for _, s := range samples {
		byIdx[s.i] = s
	}
	steps := make([]replayStep, r.w.replayed)
	for i := range steps {
		s, ok := byIdx[i]
		if !ok || s.err != nil {
			return nil, errors.New("the traced run needs its first requests answered correctly")
		}
		in, err := r.stream.get(i)
		if err != nil {
			return nil, err
		}
		steps[i] = r.w.replayStep(in, s)
	}
	var session *circuit.Circuit
	if r.ecoBase != nil {
		var err error
		if session, err = benchfmt.Parse(bytes.NewReader(r.ecoBase), "par6000"); err != nil {
			return nil, err
		}
	}
	rr, err := replay(steps, r.dir, session, r.w.journal)
	if err != nil {
		return nil, err
	}
	recoverDir := e.recoverDir
	if recoverDir == "" {
		recoverDir = filepath.Join(r.dir, "fresh-store")
	}
	rr.recover, err = timeRecover(recoverDir)
	return rr, err
}

package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"serretime/internal/store"
)

// workload is one traffic mix against the daemon. Every workload is a
// closed loop: each client sends its next request only after the
// previous one has finished.
type workload struct {
	name    string
	clients int
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	// prefetch inputs are made before set-up; later ones on demand.
	prefetch int
	// replayed is how many of the run's first requests the traced run
	// replays in process.
	replayed int
	// journal says whether the replayed requests go through the job
	// store (batch jobs do, sessions do not).
	journal bool
	// prepare makes the workload's input stream for r.seed.
	prepare func(r *run) error
	// setup brings up a daemon ready for the timed window; it is timed
	// as setup_s.
	setup   func(r *run, e *env, rep int) error
	request func(e *env, in input) sample
	// replayStep rebuilds one served request for the traced replay.
	replayStep func(in input, s sample) replayStep
}

// env is one set-up daemon and what the workload prepared on it.
type env struct {
	d       *daemon
	c       *client
	session string
	// recoverDir is a copy of the data directory the daemon recovered
	// from at its last boot, for the traced run's store.recover_s.
	recoverDir string
}

func (e *env) stop() error {
	if e.c != nil {
		e.c.close()
	}
	return e.d.stop()
}

// sample is one request as the client saw it.
type sample struct {
	i      int
	kind   string
	err    error
	lat    time.Duration
	result [32]byte
	dser   float64
	jobID  string
	disp   string // batch requests: accepted, coalesced or cached
	polls  int
	warm   bool          // session deltas: solved on the warm path
	solve  time.Duration // session deltas: the daemon's solve time
}

func batchSample(j job, err error) sample {
	return sample{err: err, result: j.result, dser: j.view.DeltaSER, jobID: j.view.ID, disp: j.view.Disposition, polls: j.polls}
}

func batchReplay(in input, s sample) replayStep {
	return replayStep{kind: in.kind,
		want: replayOut{key: s.jobID, result: s.result, solved: true, dser: s.dser},
		run:  func(p *replayer) (replayOut, error) { return p.batch(in.name, in.bench) },
	}
}

// Job-status poll intervals, far below each workload's median latency
// (about 0.12 s for a Table I job under two clients, about 20 ms for the
// ingest mix).
const (
	tableIPoll = 5 * time.Millisecond
	ingestPoll = time.Millisecond
)

var workloads = []*workload{
	{
		name:     "tablei-batch",
		clients:  2,
		setups:   9,
		prefetch: 8 * 21,
		replayed: 21,
		journal:  true,
		prepare: func(r *run) error {
			r.stream = tableIStream(r.seed)
			return nil
		},
		setup: func(r *run, e *env, rep int) error {
			return r.boot(e, rep)
		},
		request: func(e *env, in input) sample {
			return batchSample(e.c.retime(in.name, in.bench, tableIPoll))
		},
		replayStep: batchReplay,
	},
	{
		name:     "eco-session",
		clients:  1,
		setups:   5,
		prefetch: 120,
		replayed: 10,
		prepare: func(r *run) (err error) {
			if r.ecoBase, err = ecoBase(); err != nil {
				return err
			}
			r.stream, err = ecoStream(r.seed, r.ecoBase)
			return err
		},
		setup: func(r *run, e *env, rep int) error {
			if err := r.boot(e, rep); err != nil {
				return err
			}
			id, err := e.c.openSession("par6000.bench", r.ecoBase)
			e.session = id
			return err
		},
		request: func(e *env, in input) sample {
			d, err := e.c.delta(e.session, in.ops)
			return sample{err: err, result: d.result, dser: d.DeltaSER, warm: d.Warm,
				solve: time.Duration(d.SolveMS * float64(time.Millisecond))}
		},
		replayStep: func(in input, s sample) replayStep {
			return replayStep{kind: in.kind,
				want: replayOut{result: s.result, solved: true, dser: s.dser},
				run:  func(p *replayer) (replayOut, error) { return p.delta(in.ops) },
			}
		},
	},
	{
		name:     "ingest-mix",
		clients:  2,
		setups:   3,
		prefetch: 1200,
		replayed: 40,
		journal:  true,
		prepare: func(r *run) error {
			bigs := make([]input, ingestBig)
			for b := range bigs {
				var err error
				if bigs[b], err = ingestBigInput(r.seed, b); err != nil {
					return err
				}
			}
			r.stream = ingestStream(r.seed, bigs)
			return nil
		},
		setup: func(r *run, e *env, rep int) error {
			// Pre-fill the cache with the large circuits, then restart
			// the daemon on the same data directory so the timed reads
			// are served from recovered state.
			if err := r.boot(e, rep); err != nil {
				return err
			}
			var wg sync.WaitGroup
			errs := make([]error, ingestBig)
			for w := 0; w < maxConns; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for b := w; b < ingestBig; b += maxConns {
						in, err := r.stream.get(2 * b)
						if err == nil {
							_, err = e.c.retime(in.name, in.bench, tableIPoll)
						}
						errs[b] = err
					}
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return fmt.Errorf("pre-fill: %w", err)
				}
			}
			dataDir := e.d.dataDir
			if err := e.stop(); err != nil {
				return err
			}
			if r.trace {
				e.recoverDir = dataDir + "-recover"
				if err := copyDir(dataDir, e.recoverDir); err != nil {
					return err
				}
			}
			if err := r.start(e, dataDir); err != nil {
				return err
			}
			b, err := e.c.do("GET", "/healthz", nil)
			if err != nil {
				return err
			}
			var h struct {
				Finished int `json:"recovered_finished"`
			}
			if err := json.Unmarshal(b, &h); err != nil {
				return err
			}
			if h.Finished != ingestBig {
				return fmt.Errorf("restarted daemon recovered %d finished jobs, want %d", h.Finished, ingestBig)
			}
			return nil
		},
		request: func(e *env, in input) sample {
			return batchSample(e.c.retime(in.name, in.bench, ingestPoll))
		},
		replayStep: func(in input, s sample) replayStep {
			if in.kind == "write" {
				return batchReplay(in, s)
			}
			return replayStep{kind: in.kind,
				want: replayOut{key: s.jobID},
				run:  func(p *replayer) (replayOut, error) { return p.read(in.name, in.bench) },
			}
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// closedLoop runs clients that each send request i only after their
// previous request finished, drawing i from one shared counter, until
// the window has passed and at least minReqs requests were sent. atMin
// runs once, when the minReqs-th request has finished.
func closedLoop(clients int, window time.Duration, minReqs int, do func(i int) sample, atMin func()) ([]sample, time.Duration) {
	var mu sync.Mutex
	var samples []sample
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if time.Since(start) >= window && next >= minReqs {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				s := do(i)
				s.i = i
				mu.Lock()
				samples = append(samples, s)
				if len(samples) == minReqs {
					atMin()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// timedRequest makes input i (outside the timed interval) and sends it.
func timedRequest(w *workload, e *env, stream *inputStream, i int) sample {
	in, err := stream.get(i)
	if err != nil {
		return sample{err: err}
	}
	start := time.Now()
	s := w.request(e, in)
	s.lat = time.Since(start)
	s.kind = in.kind
	return s
}

// serviceMetrics are the daemon-side figures of the traced run, read
// over HTTP: queue wait and solve time of fresh jobs (from their span
// trees) or session deltas, the cache-hit and warm-delta shares, and
// status polls per result.
func serviceMetrics(e *env, samples []sample) (map[string]float64, error) {
	var queue, solve time.Duration
	var solved, batch, cached, deltas, warm, polls, ok int
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		ok++
		polls += s.polls
		switch {
		case s.jobID == "":
			deltas++
			solved++
			solve += s.solve
			if s.warm {
				warm++
			}
		case s.disp == "accepted":
			batch++
			q, sv, err := e.c.jobTrace(s.jobID)
			if err != nil {
				return nil, err
			}
			solved++
			queue += q
			solve += sv
		default:
			batch++
			if s.disp == "cached" {
				cached++
			}
		}
	}
	frac := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m := map[string]float64{
		"service.cache_hit_frac":    frac(cached, batch),
		"service.session_warm_frac": frac(warm, deltas),
		"http.polls_per_result":     frac(polls, ok),
		"service.queue_wait_s":      0,
		"service.solve_s":           0,
	}
	if solved > 0 {
		m["service.queue_wait_s"] = queue.Seconds() / float64(solved)
		m["service.solve_s"] = solve.Seconds() / float64(solved)
	}
	return m, nil
}

// timeRecover is the store recovery a daemon boot performs on dir.
func timeRecover(dir string) (time.Duration, error) {
	start := time.Now()
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		return 0, err
	}
	_, _, err = st.Recover()
	d := time.Since(start)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return d, err
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"serretime"
	"serretime/internal/telemetry"
)

// buildDaemon compiles the serretimed binary once per test run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "serretimed")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// lockedBuffer collects child output concurrently with test assertions.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one serretimed child process under test.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	out     *lockedBuffer
	drained chan struct{} // closed once stdout hits EOF: the child exited
}

// startDaemon boots the binary on a kernel-chosen port and waits for its
// "listening on" line.
func startDaemon(t *testing.T, bin, dataDir string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}, extra...)
	cmd := exec.Command(bin, args...)
	buf := &lockedBuffer{}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})

	addr := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		defer io.Copy(buf, stdout) // keep draining after the address line
		rd := make([]byte, 4096)
		var acc []byte
		for {
			n, err := stdout.Read(rd)
			acc = append(acc, rd[:n]...)
			buf.Write(rd[:n])
			if i := bytes.Index(acc, []byte("listening on ")); i >= 0 {
				if j := bytes.IndexByte(acc[i:], '\n'); j >= 0 {
					addr <- strings.TrimSpace(string(acc[i+len("listening on ") : i+j]))
					return
				}
			}
			if err != nil {
				addr <- ""
				return
			}
		}
	}()
	select {
	case a := <-addr:
		if a == "" {
			t.Fatalf("daemon died before listening:\n%s", buf.String())
		}
		return &daemon{cmd: cmd, base: "http://" + a, out: buf, drained: drained}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never announced its address:\n%s", buf.String())
		return nil
	}
}

// kill SIGKILLs the daemon — no drain, no WAL close: the crash under test.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = d.cmd.Wait()
}

// stop SIGTERMs the daemon and waits for it to drain and exit — the
// graceful path kill skips — and returns its exit status. Its log is
// complete once stop returns: Wait runs only after stdout reached EOF,
// since Wait closes the pipe and would cut off the last lines.
func (d *daemon) stop(t *testing.T) error {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.drained:
	case <-time.After(time.Minute):
		t.Fatalf("daemon did not exit within a minute of SIGTERM:\n%s", d.out.String())
	}
	return d.cmd.Wait()
}

type submitReply struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Disposition string `json:"disposition"`
}

func submit(t *testing.T, base string, body []byte) submitReply {
	t.Helper()
	resp, err := http.Post(base+"/v1/retime?frames=2&words=1", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %.300s", resp.StatusCode, data)
	}
	var r submitReply
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("submit reply: %v: %.300s", err, data)
	}
	return r
}

// get fetches url and returns the status code and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func waitDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		_, data := get(t, base+"/v1/jobs/"+id)
		var v struct {
			Status, Error string
		}
		_ = json.Unmarshal(data, &v)
		switch v.Status {
		case "done":
			return
		case "failed":
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
}

func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	code, data := get(t, base+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %.300s", code, data)
	}
	return data
}

func tableIBench(t *testing.T, name string, scale int) []byte {
	t.Helper()
	d, err := serretime.NewTableIDesign(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKillRecover is the end-to-end crash contract: solve a job, SIGKILL
// the daemon (no drain, no close), restart it on the same data
// directory, and demand the resubmission answers "cached" with the
// byte-identical result. A second job killed mid-lifecycle must be
// re-solved by the reborn daemon under the same job ID.
func TestKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	bench := tableIBench(t, "b14_1_opt", 100)

	// Life 1: solve, confirm, crash.
	d1 := startDaemon(t, bin, dataDir)
	r1 := submit(t, d1.base, bench)
	if r1.Disposition != "accepted" {
		t.Fatalf("first submit: %+v", r1)
	}
	waitDone(t, d1.base, r1.ID)
	want := fetchResult(t, d1.base, r1.ID)

	// Second job: journaled as submitted, then the process dies. With
	// -fsync always the submitted record is durable before the HTTP
	// reply, so the reborn daemon must know about it.
	bench2 := tableIBench(t, "s13207", 100)
	r2 := submit(t, d1.base, bench2)
	d1.kill(t)

	// Life 2: same directory. The finished job must be a cache hit with
	// identical bytes; the interrupted one must re-solve under its ID.
	d2 := startDaemon(t, bin, dataDir)
	rr := submit(t, d2.base, bench)
	if rr.Disposition != "cached" {
		t.Fatalf("post-crash resubmit: disposition %q, want cached\nlogs:\n%s", rr.Disposition, d2.out.String())
	}
	if rr.ID != r1.ID {
		t.Fatalf("post-crash job ID changed: %s vs %s", rr.ID, r1.ID)
	}
	got := fetchResult(t, d2.base, rr.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs from pre-crash result")
	}
	// The pre-crash job's persisted span tree is served after the reboot.
	code, tdata := get(t, d2.base+"/v1/jobs/"+r1.ID+"/trace")
	if doc, err := telemetry.DecodeTraceDoc(tdata); err != nil || doc.Root.Find("solve") == nil {
		t.Fatalf("recovered trace: HTTP %d, %v: %.300s", code, err, tdata)
	}

	waitDone(t, d2.base, r2.ID)
	if res := fetchResult(t, d2.base, r2.ID); len(res) == 0 {
		t.Fatal("re-solved job served an empty result")
	}

	// The health endpoint reports the recovery.
	_, hdata := get(t, d2.base+"/healthz")
	var h struct {
		StoreMode         string `json:"store_mode"`
		RecoveredFinished int    `json:"recovered_finished"`
		RecoveredRequeued int    `json:"recovered_requeued"`
	}
	if err := json.Unmarshal(hdata, &h); err != nil {
		t.Fatalf("healthz: %v: %.300s", err, hdata)
	}
	// The second job raced the SIGKILL: depending on timing it was
	// recovered finished or requeued — either way both jobs survived.
	if h.StoreMode != "disk" || h.RecoveredFinished+h.RecoveredRequeued != 2 || h.RecoveredFinished < 1 {
		t.Fatalf("healthz after recovery: %+v\nlogs:\n%s", h, d2.out.String())
	}
	// /metrics carries the same recovery as the store families.
	_, mdata := get(t, d2.base+"/metrics")
	for _, want := range []string{
		`serretimed_store_mode{mode="disk"} 1`,
		fmt.Sprintf(`serretimed_store_recovered_jobs_total{kind="finished"} %d`, h.RecoveredFinished),
		fmt.Sprintf(`serretimed_store_recovered_jobs_total{kind="requeued"} %d`, h.RecoveredRequeued),
		"serretimed_store_quarantined_total 0",
		"serretimed_store_errors_total 0",
	} {
		if !strings.Contains(string(mdata), want+"\n") {
			t.Errorf("/metrics after recovery lacks %q", want)
		}
	}
	d2.kill(t)

	// Life 3: everything — including the job life 2 re-solved — is now a
	// cache hit.
	d3 := startDaemon(t, bin, dataDir)
	if rr := submit(t, d3.base, bench2); rr.Disposition != "cached" {
		t.Fatalf("third-life resubmit of re-solved job: %q, want cached\nlogs:\n%s", rr.Disposition, d3.out.String())
	}
	fmt.Println("kill-recover: cache survived two crashes")
}

// TestGracefulStopFlushesTraceSink drives the drain path of the binary:
// with -trace set, two distinct netlists and a duplicate of the first are
// submitted, the daemon gets SIGTERM, and it must exit 0 after logging
// "serretimed: stopped". The sink then holds one decodable trace document
// per solve — the duplicate is answered from the first job, not solved —
// each with a timed "solve" span and solver phases under it.
func TestGracefulStopFlushesTraceSink(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	bin := buildDaemon(t)
	sink := filepath.Join(t.TempDir(), "sink.jsonl")
	d := startDaemon(t, bin, t.TempDir(), "-trace", sink)

	first, second := tableIBench(t, "b14_1_opt", 100), tableIBench(t, "s13207", 100)
	r1, r2 := submit(t, d.base, first), submit(t, d.base, second)
	dup := submit(t, d.base, first)
	if r1.ID == r2.ID || dup.ID != r1.ID || (dup.Disposition != "coalesced" && dup.Disposition != "cached") {
		t.Fatalf("submissions: %+v, %+v, duplicate %+v", r1, r2, dup)
	}
	waitDone(t, d.base, r1.ID)
	waitDone(t, d.base, r2.ID)

	if err := d.stop(t); err != nil {
		t.Fatalf("exit after SIGTERM: %v\nlogs:\n%s", err, d.out.String())
	}
	if !strings.Contains(d.out.String(), "serretimed: stopped") {
		t.Fatalf("no stop line in the log:\n%s", d.out.String())
	}

	data, err := os.ReadFile(sink)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink has %d documents, want one per solve (2):\n%.600s", len(lines), data)
	}
	var fold telemetry.RunStats
	for i, line := range lines {
		doc, err := telemetry.DecodeTraceDoc([]byte(line))
		if err != nil {
			t.Fatalf("sink line %d: %v", i+1, err)
		}
		if solve := doc.Root.Find("solve"); solve == nil || solve.DurNS <= 0 {
			t.Fatalf("sink line %d has no timed solve span: %.300s", i+1, line)
		}
		fold.Add(doc.Stats())
	}
	if fold.Phases[telemetry.PhaseMinimize].Total <= 0 || fold.Counter(telemetry.CounterSteps) == 0 {
		t.Fatalf("sink folds to minimize %v, steps %d; want both > 0",
			fold.Phases[telemetry.PhaseMinimize].Total, fold.Counter(telemetry.CounterSteps))
	}
}

// TestMemoryOnlyModeUnchanged pins the default: no -data-dir, no store,
// /healthz reports memory mode.
func TestMemoryOnlyModeUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	bin := buildDaemon(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()
	rd := make([]byte, 4096)
	var acc []byte
	for !bytes.Contains(acc, []byte("\n")) {
		n, err := stdout.Read(rd)
		acc = append(acc, rd[:n]...)
		if err != nil {
			t.Fatalf("daemon died: %s", acc)
		}
	}
	addr := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(acc), "\n", 2)[0], "serretimed: listening on "))
	_, data := get(t, "http://"+addr+"/healthz")
	if !strings.Contains(string(data), `"store_mode": "memory"`) {
		t.Fatalf("healthz: %.300s", data)
	}
}

// submitRaw posts a netlist with an arbitrary query string and returns
// the raw status code and body — for exercising rejection paths the
// submit helper treats as fatal.
func submitRaw(t *testing.T, base, query string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/retime?"+query, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// TestAccuracyQueryEndToEnd drives the accuracy tier through the real
// daemon: a misspelled parameter must 400 (never silently run the
// expensive exact path), a bad value must 400, and a fast-tier job must
// solve end to end without coalescing onto the exact-tier cache entry.
func TestAccuracyQueryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, t.TempDir())
	bench := tableIBench(t, "s35932", 1500)

	if code, data := submitRaw(t, d.base, "acuracy=fast&frames=2&words=1", bench); code != http.StatusBadRequest {
		t.Fatalf("misspelled acuracy=: HTTP %d, want 400: %.300s", code, data)
	} else if !bytes.Contains(data, []byte("acuracy")) {
		t.Fatalf("400 body does not name the bad parameter: %.300s", data)
	}
	if code, data := submitRaw(t, d.base, "accuracy=banana&frames=2&words=1", bench); code != http.StatusBadRequest {
		t.Fatalf("accuracy=banana: HTTP %d, want 400: %.300s", code, data)
	}

	code, data := submitRaw(t, d.base, "accuracy=fast&frames=2&words=1", bench)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("accuracy=fast submit: HTTP %d: %.300s", code, data)
	}
	var fast submitReply
	if err := json.Unmarshal(data, &fast); err != nil {
		t.Fatalf("fast reply: %v: %.300s", err, data)
	}
	waitDone(t, d.base, fast.ID)
	if out := fetchResult(t, d.base, fast.ID); len(out) == 0 {
		t.Fatal("fast job returned an empty netlist")
	}

	// The exact-tier submission of the same netlist+options must be a
	// fresh job, not a cache hit on the fast one.
	exact := submit(t, d.base, bench)
	if exact.Disposition == "cached" {
		t.Fatalf("exact submission coalesced onto the fast cache entry: %+v", exact)
	}
	if exact.ID == fast.ID {
		t.Fatalf("fast and exact submissions share job ID %s", exact.ID)
	}
}

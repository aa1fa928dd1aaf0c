package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"serretime"
	"serretime/internal/service"
	"serretime/internal/store"
)

// serviceTraces runs a disk-store service in process over two distinct
// circuits and returns both trace layouts it leaves behind: the data
// directory's traces/ (one document per file) and the -trace sink (one
// document per line).
func serviceTraces(t *testing.T) (dir, lines string) {
	t.Helper()
	data := t.TempDir()
	disk, err := store.Open(store.Options{Dir: data})
	if err != nil {
		t.Fatal(err)
	}
	recovered, st, err := disk.Recover()
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	svc := service.New(context.Background(), service.Config{
		Workers: 1, Timeout: time.Minute, Store: disk, Recorder: &sink, Logf: t.Logf,
	})
	svc.Restore(recovered, st)
	opt := serretime.RobustOptions{RetimeOptions: serretime.RetimeOptions{
		Algorithm: serretime.MinObsWin,
		Analysis:  serretime.AnalysisOptions{Frames: 2, SignatureWords: 1},
	}}
	for _, name := range []string{"b14_1_opt", "s13207"} {
		d, err := serretime.NewTableIDesign(name, 100)
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := svc.Submit(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	lines = filepath.Join(t.TempDir(), "sink.jsonl")
	if err := os.WriteFile(lines, sink.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(data, "traces"), lines
}

// TestReportsOverServiceTraces renders both reports from both layouts a
// service run writes, then corrupts one document of each layout and
// checks it is counted as skipped while the rest still report.
func TestReportsOverServiceTraces(t *testing.T) {
	dir, lines := serviceTraces(t)
	for _, path := range []string{dir, lines} {
		checkReports(t, path, 0)
	}

	if err := os.WriteFile(filepath.Join(dir, "corrupt.json"), []byte(`{"trace_id":`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(lines, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not a trace document\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{dir, lines} {
		checkReports(t, path, 1)
	}
}

// checkReports asserts both reports over path cover the two service jobs
// and announce exactly skipped undecodable documents.
func checkReports(t *testing.T, path string, skipped int) {
	t.Helper()
	var fleet strings.Builder
	if err := fleetReport(&fleet, path, 5); err != nil {
		t.Fatalf("fleetReport(%s): %v", path, err)
	}
	for _, want := range []string{"fleet trace report: 2 job(s)", "queue-wait"} {
		if !strings.Contains(fleet.String(), want) {
			t.Errorf("fleet report over %s lacks %q:\n%s", path, want, fleet.String())
		}
	}
	skipNote := "undecodable trace document(s) skipped"
	if got := strings.Contains(fleet.String(), skipNote); got != (skipped > 0) ||
		(skipped > 0 && !strings.Contains(fleet.String(), "seranalyze: 1 "+skipNote)) {
		t.Errorf("fleet report over %s: want %d skipped:\n%s", path, skipped, fleet.String())
	}

	var runs strings.Builder
	if err := traceReport(&runs, path); err != nil {
		t.Fatalf("traceReport(%s): %v", path, err)
	}
	head := "trace " + path + ": 2 run(s)"
	if skipped > 0 {
		head += ", 1 undecodable document(s) skipped"
	}
	if !strings.HasPrefix(runs.String(), head+"\n") {
		t.Errorf("trace report over %s: want header %q:\n%s", path, head, runs.String())
	}
	if n := strings.Count(runs.String(), "== run "); n != 2 {
		t.Errorf("trace report over %s has %d runs, want 2:\n%s", path, n, runs.String())
	}
}

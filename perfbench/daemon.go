package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one serretimed child process: the real binary with its
// defaults, except for a loopback address and a data directory inside
// the run directory.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	exited  chan error
	log     *os.File
}

// startDaemon boots serretimed on dataDir and returns once /healthz
// answers.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	cmd.Stderr = logf
	// The daemon dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, dataDir: dataDir, exited: make(chan error, 1), log: logf}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if a, ok := strings.CutPrefix(line, "serretimed: listening on "); ok {
				addr <- a
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	go func() { d.exited <- cmd.Wait() }()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.exited:
		logf.Close()
		return nil, fmt.Errorf("serretimed exited during boot: %v (log: %s)", err, logPath)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("serretimed did not start listening within 60s (log: %s)", logPath)
	}
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(start) > 60*time.Second {
			d.kill()
			return nil, fmt.Errorf("serretimed not healthy within 60s (log: %s)", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit; after
// 30 s it is killed.
func (d *daemon) stop() error {
	if d == nil || d.cmd == nil {
		return nil
	}
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		d.cmd = nil
		return err
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("serretimed did not drain within 30s; killed")
	}
}

func (d *daemon) kill() {
	if d == nil || d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
	d.cmd = nil
	d.log.Close()
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times
// (100 on every Linux platform Go supports).
const clockTicks = 100

// cpuTime is the daemon's user plus system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS is the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

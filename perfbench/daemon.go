package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running directoryd process and the single keep-alive
// HTTP connection the benchmark talks to it over.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	stderr *tailBuffer
}

// live tracks every started process so that any exit path can stop
// them.
var live = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: map[*daemon]bool{}}

// stopAll kills and reaps every process still running.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// tailBuffer keeps the last 8 KiB written to it (a daemon's stderr, for
// error reports).
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8<<10 {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-8<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// launch starts directoryd with args and waits until /healthz answers
// ok. The returned duration runs from just before the process starts.
func launch(bin string, args ...string) (*daemon, time.Duration, error) {
	d := &daemon{
		cmd:    exec.Command(bin, args...),
		exited: make(chan struct{}),
		stderr: &tailBuffer{},
	}
	d.cmd.Stderr = d.stderr
	// directoryd dies with the benchmark, even when the benchmark is
	// killed before it can stop it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	addr := make(chan string, 1)
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	live.Lock()
	live.set[d] = true
	live.Unlock()
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " on http://"); i >= 0 && strings.HasPrefix(line, "live directory") {
				select {
				case addr <- strings.TrimSuffix(line[i+len(" on "):], "/"):
				default:
				}
			}
		}
		io.Copy(io.Discard, out)
	}()
	go func() {
		d.cmd.Wait()
		live.Lock()
		delete(live.set, d)
		live.Unlock()
		close(d.exited)
	}()

	fail := func(format string, args ...any) (*daemon, time.Duration, error) {
		d.cmd.Process.Kill()
		<-d.exited
		return nil, 0, fmt.Errorf(format+"\n%s", append(args, d.stderr.String())...)
	}
	select {
	case d.base = <-addr:
	case <-d.exited:
		return fail("directoryd exited during startup")
	case <-time.After(150 * time.Second):
		return fail("directoryd printed no address within 150s")
	}
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, _, _, _, err := d.do("GET", "/healthz", nil)
		if err == nil && st == http.StatusOK {
			return d, time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return fail("directoryd /healthz not ok within 60s (status %d, %v)", st, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// do runs one request and reads the whole response; the duration is the
// full round trip.
func (d *daemon) do(method, path string, body []byte) (int, http.Header, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, b, time.Since(t0), err
}

// peakRSSMiB reads the process's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop sends SIGTERM (directoryd drains and snapshots) and waits for the
// process to exit, killing it after 60s.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("directoryd did not exit within 60s of SIGTERM")
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("directoryd exited with %v:\n%s", d.cmd.ProcessState, d.stderr.String())
	}
	return nil
}

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServe compiles ./cmd/serve of the repository at root into bin.
func buildServe(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building cmd/serve: %w", err)
	}
	return nil
}

// child is one running cmd/serve process on a loopback port.
type child struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:port
	drained chan struct{} // closed once the process's stderr reaches EOF
}

// startServe execs bin with args plus an ephemeral loopback listen address
// and returns once the server reports the address it listens on. The
// server's output is appended to logPath. The child is killed if the
// benchmark dies first.
func startServe(bin string, args []string, logPath string) (*child, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(c.drained)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if a, ok := strings.CutPrefix(line, "serve: listening on "); ok {
				addr <- a
			}
		}
		io.Copy(logf, stderr) // a line past the scanner's limit: keep draining
	}()
	select {
	case a := <-addr:
		c.base = "http://" + a
		return c, nil
	case <-c.drained:
		c.stop()
		return nil, fmt.Errorf("%s exited before listening (see %s)", bin, logPath)
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s did not listen within 30s (see %s)", bin, logPath)
	}
}

// stop asks the server to drain and exit, kills it if it has not exited
// within 10s, and waits for it.
func (c *child) stop() error {
	c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process is what we want
	select {
	case <-c.drained:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck
		<-c.drained
	}
	err := c.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) && !exit.Exited() {
		return nil // killed: the drain deadline already reported nothing useful
	}
	return err
}

// cpuTicks returns the server's user+system CPU time in clock ticks.
func (c *child) cpuTicks() (int64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// peakRSSMB returns the server's high-water resident set size (VmHWM).
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "status"))
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

// counters reads the server's metric counters from /metrics.json.
func (c *child) counters(hc *http.Client) (map[string]int64, error) {
	resp, err := hc.Get(c.base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	return doc.Metrics.Counters, nil
}

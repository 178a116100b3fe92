package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// daemon is one rdxd child process on loopback ports the kernel picks.
type daemon struct {
	cmd   *exec.Cmd
	addr  string // profiling listener
	admin string // admin listener (/metrics, /whatif)
	http  *http.Client
	exit  chan error // receives cmd.Wait's result once
	log   *logTail
}

var listenRE = regexp.MustCompile(`rdxd: (profiling on |admin on http://)(\S+)`)

// startDaemon launches bin and waits until both listeners are up.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-drain-timeout", "10s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rdxd: %w", err)
	}
	d := &daemon{cmd: cmd, exit: make(chan error, 1), log: &logTail{}}
	ready := make(chan struct{})
	go func() {
		// Reads the daemon's log until it exits; the pipe closes then.
		sc := bufio.NewScanner(stderr)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			d.log.add(line)
			if m := listenRE.FindStringSubmatch(line); m != nil && !signalled {
				if strings.HasPrefix(m[1], "profiling") {
					d.addr = m[2]
				} else {
					d.admin = m[2]
				}
				if d.addr != "" && d.admin != "" {
					signalled = true
					close(ready)
				}
			}
		}
		d.exit <- cmd.Wait()
	}()
	select {
	case <-ready:
	case err := <-d.exit:
		d.exit <- err
		return nil, fmt.Errorf("rdxd exited before listening: %v\n%s", err, d.log)
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("rdxd did not report its listeners within 20s\n%s", d.log)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	// One connection for queries: with the ingest sessions this keeps
	// the load at the two connections the workloads promise.
	d.http = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit; a
// daemon still running after 15s is killed.
func (d *daemon) stop() error {
	if d.http != nil {
		d.http.CloseIdleConnections()
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-d.exit:
		d.exit <- err
		if err != nil {
			return fmt.Errorf("rdxd did not drain cleanly: %v\n%s", err, d.log)
		}
		return nil
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		err := <-d.exit
		d.exit <- err
		return fmt.Errorf("rdxd did not stop within 15s; killed\n%s", d.log)
	}
}

// metrics scrapes GET /metrics.
func (d *daemon) metrics() (server.Metrics, error) {
	var m server.Metrics
	resp, err := d.http.Get("http://" + d.admin + "/metrics")
	if err != nil {
		return m, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return m, fmt.Errorf("scraping /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m, nil
}

// peakRSSMiB is the daemon's resident-memory high-water mark.
func (d *daemon) peakRSSMiB() (float64, error) {
	return procPeakRSSMiB(d.cmd.Process.Pid)
}

// cpuTime is the processor time the daemon has used so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	return procCPUTime(d.cmd.Process.Pid)
}

// procPeakRSSMiB reads VmHWM from /proc/<pid>/status.
func procPeakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// procCPUTime reads utime+stime from /proc/<pid>/stat.
func procCPUTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	// Fields 14 and 15 of stat; f[0] is field 3.
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// selfCPUTime is this process's processor time so far.
func selfCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// logTail keeps the last lines of a child's log for error messages.
type logTail struct {
	mu    sync.Mutex
	lines []string
}

func (l *logTail) add(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, s)
	if len(l.lines) > 20 {
		l.lines = l.lines[len(l.lines)-20:]
	}
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

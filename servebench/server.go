package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one dpserved process started by the benchmark.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // process exit status, valid once done is closed
}

// startServer launches dpserved with its default flags, except for a free
// loopback port, and waits until /healthz answers. It returns the
// launch-to-healthy time.
func startServer(ctx context.Context, binary, logPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	start := time.Now()
	cmd := exec.Command(binary, "-addr", fmt.Sprintf("127.0.0.1:%d", port))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", binary, err)
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("dpserved exited before it was healthy: %v (log: %s)", s.err, logPath)
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
		if time.Since(start) > 20*time.Second {
			s.stop()
			return nil, 0, errors.New("dpserved not healthy after 20s")
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop terminates the server and waits until the process has exited.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// procStatus returns a field of /proc/<pid>/status.
func (s *server) procStatus(field string) (string, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no %s in /proc/%d/status", field, s.cmd.Process.Pid)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	v, err := s.procStatus("VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// cpuTime is the process's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks of 10 ms, USER_HZ on Linux).
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	text := string(data)
	fields := strings.Fields(text[strings.LastIndexByte(text, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times %q %q", fields[11], fields[12])
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// gomaxprocs is the GOMAXPROCS the server's Go runtime picked: the
// GOMAXPROCS environment variable when set, else the number of CPUs in
// its affinity mask (Go before 1.25 ignores cgroup CPU quotas).
func (s *server) gomaxprocs() int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	list, err := s.procStatus("Cpus_allowed_list")
	if err != nil {
		return 0
	}
	return countCPUList(list)
}

// countCPUList counts the CPUs of a list such as "0-3,6".
func countCPUList(list string) int {
	n := 0
	for _, part := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil {
			continue
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil {
				continue
			}
		}
		n += b - a + 1
	}
	return n
}

// counters is a scrape of the server's /metrics counters, by name without
// the dpserved_ prefix and _total suffix.
type counters map[string]int64

func (s *server) scrape() (counters, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := counters{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "dpserved_") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue // the latency histogram's float sum
		}
		name = strings.TrimSuffix(strings.TrimPrefix(name, "dpserved_"), "_total")
		out[name] = v
	}
	return out, sc.Err()
}

func (c counters) sub(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// reconcile checks the identities the serve e2e suite asserts, over a
// whole server lifetime.
func (c counters) reconcile() error {
	outcomes := c["responses_ok"] + c["client_gone"] + c["rejected_queue_full"] +
		c["bad_requests"] + c["timeouts"] + c["solve_errors"]
	if c["requests"] != outcomes {
		return fmt.Errorf("requests_total %d != sum of outcomes %d", c["requests"], outcomes)
	}
	if routes := c["cache_hits"] + c["coalesced"] + c["solved"]; c["responses_ok"] != routes {
		return fmt.Errorf("responses_ok_total %d != hits+coalesced+solved %d", c["responses_ok"], routes)
	}
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// invokeTimeout bounds one program invocation; the slowest takes seconds.
const invokeTimeout = 90 * time.Second

// proc is one finished program invocation.
type proc struct {
	wall   time.Duration
	cpu    time.Duration
	maxRSS int64 // bytes
	digest string
	stdout []byte // kept only when asked for
	// err reports a failed start, a non-zero exit or a timeout, with the
	// tail of stderr.
	err error
}

// oneCore is the extra environment of every measured process. The
// machine's two vCPUs share their host with other tenants, and work spread
// over both varies from run to run about twice as much as work on one, so
// measured processes run on one core. Invocations that only produce
// reference answers keep the default parallelism, so the oracles also
// compare one-core answers with default-parallelism ones.
var oneCore = []string{"GOMAXPROCS=1"}

// invoke runs a built program in dir, with env added to the environment,
// its stdout drained into a sha256, and measures it from exec to exit.
func (b *bench) invoke(ctx context.Context, dir string, env, argv []string, keep bool) proc {
	ctx, cancel := context.WithTimeout(ctx, invokeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.bin(argv[0]), argv[1:]...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return proc{err: err}
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return proc{err: err}
	}
	h := sha256.New()
	var kept bytes.Buffer
	var w io.Writer = h
	if keep {
		w = io.MultiWriter(h, &kept)
	}
	_, copyErr := io.Copy(w, out)
	waitErr := cmd.Wait()
	p := proc{wall: time.Since(start), digest: hex.EncodeToString(h.Sum(nil)), stdout: kept.Bytes()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.maxRSS = ru.Maxrss * 1024 // Linux reports KiB
	}
	if err := errors.Join(copyErr, waitErr); err != nil {
		p.err = fmt.Errorf("%s: %w: %s", strings.Join(argv, " "), err, tail(stderr.String()))
	}
	return p
}

// tail returns the last few hundred bytes of a program's stderr.
func tail(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 400 {
		s = "…" + s[len(s)-400:]
	}
	return s
}

// server is a running dmls-serve.
type server struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	stderr  bytes.Buffer
	exited  chan struct{}
	client  *http.Client
}

// launch starts a measured dmls-serve on a free loopback port with its
// access log at logPath, and returns once /healthz answers 200.
func (b *bench) launch(ctx context.Context, dir string, flags []string, logPath string, conns int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:" + port, "-access-log", logPath}, flags...)
	s := &server{
		base:    "http://127.0.0.1:" + port,
		logPath: logPath,
		exited:  make(chan struct{}),
		client: &http.Client{
			Timeout: invokeTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	s.cmd = exec.Command(b.bin("dmls-serve"), args...)
	s.cmd.Dir = dir
	s.cmd.Env = append(os.Environ(), oneCore...)
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("dmls-serve exited before becoming healthy: %s", tail(s.stderr.String()))
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("dmls-serve not healthy after 30s: %s", tail(s.stderr.String()))
		}
	}
}

// stop drains the server with SIGTERM (SIGKILL if the drain hangs), waits
// for it to exit and returns its peak resident set in bytes.
func (s *server) stop() (int64, error) {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	var rss int64
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss * 1024
	}
	if !s.cmd.ProcessState.Success() {
		return rss, fmt.Errorf("dmls-serve: %v: %s", s.cmd.ProcessState, tail(s.stderr.String()))
	}
	return rss, nil
}

// cpu returns the server's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks of 10ms, the Linux default).
func (s *server) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	fields := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// counter reads one counter from the server's Prometheus exposition.
func (s *server) counter(ctx context.Context, name string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// accessLog maps trace ids to the server-side duration of their request,
// from the JSON access log dmls-serve wrote.
func accessLog(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	dec := json.NewDecoder(f)
	for {
		var e struct {
			TraceID    string  `json:"trace_id"`
			DurationMS float64 `json:"duration_ms"`
		}
		if err := dec.Decode(&e); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		out[e.TraceID] = e.DurationMS
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	_, port, err := net.SplitHostPort(ln.Addr().String())
	return port, err
}

package bench

import (
	"bufio"
	"bytes"
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

	"softsoa/perfbench/gen"
)

// pollEvery is the health-probe interval while a server boots.
const pollEvery = 200 * time.Microsecond

// server is one running broker process (brokerd or the traced
// binary) listening on addr with its state in dir.
type server struct {
	cmd  *exec.Cmd
	addr string
	dir  string
	log  *os.File
	done chan error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", fmt.Errorf("release port: %w", err)
	}
	return addr, nil
}

// start launches bin on addr with args; its log (stderr) goes to
// logPath, appended so a restart keeps the earlier boot's lines.
func start(bin, addr, dir, logPath string, args ...string) (*server, error) {
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open server log: %w", err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = log
	cmd.Stderr = log
	// The server dies with the driver, so an interrupted run leaves no
	// process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, addr: addr, dir: dir, log: log, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	return s, nil
}

// waitHealthy polls GET /v1/health until it answers 200, the process
// exits, or the deadline passes.
func (s *server) waitHealthy(cl *http.Client, deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	url := "http://" + s.addr + "/v1/health"
	for {
		resp, err := cl.Get(url)
		if err == nil {
			//lint:ignore errcheck draining a health probe body
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("server exited before becoming healthy: %v (log %s)", err, s.log.Name())
		default:
		}
		if time.Now().After(stop) {
			return fmt.Errorf("server not healthy after %v (log %s)", deadline, s.log.Name())
		}
		// Poll every 200µs; nanosleep keeps that interval honest (see
		// gen.WallClock).
		clk := gen.NewWallClock()
		clk.SleepUntil(pollEvery)
	}
}

// kill sends SIGKILL and waits for the process to be gone.
func (s *server) kill() error { return s.stop(syscall.SIGKILL, 10*time.Second) }

// terminate sends SIGTERM (graceful drain) and waits for the exit.
func (s *server) terminate() error { return s.stop(syscall.SIGTERM, 60*time.Second) }

func (s *server) stop(sig syscall.Signal, wait time.Duration) error {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signal server: %w", err)
	}
	select {
	case err := <-s.done:
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			return fmt.Errorf("wait for server: %w", err)
		}
		return nil
	case <-time.After(wait):
		//lint:ignore errcheck last resort; the wait below reports the outcome
		s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("server ignored %v for %v", sig, wait)
	}
}

// cpuTime is the process's user+system CPU time from /proc.
func (s *server) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read /proc stat: %w", err)
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	end := bytes.LastIndexByte(raw, ')')
	if end < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	fields := strings.Fields(string(raw[end+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat times")
	}
	// Linux reports clock ticks of USER_HZ, which is 100 on every
	// supported architecture.
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSS is the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("open /proc status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// get fetches url and returns status and body.
func get(ctx context.Context, cl *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

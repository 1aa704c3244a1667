package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one spawned `modpeg serve` process, run with its default
// flags plus a listen address the kernel picks and a fresh registry
// directory. It logs one JSON record per request and per parse to its
// standard error, as a default-configured server does; the benchmark
// reads the "listening" record for the address and discards the rest.
type server struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	drained chan struct{} // closed when standard error reaches EOF
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

func startServer(bin, registryDir string) (*server, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-registry-dir", registryDir)
	// Should the benchmark itself be killed, the kernel stops the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		r := bufio.NewReader(stderr)
		for {
			line, err := r.ReadBytes('\n')
			var rec struct{ Msg, Addr string }
			if json.Unmarshal(line, &rec) == nil && rec.Msg == "listening" {
				addr <- rec.Addr
				io.Copy(io.Discard, r) // the request log; the reader only needs EOF
				return
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.drained:
		s.stop()
		return nil, errors.New("server exited before listening")
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, errors.New("server did not start listening within 60s")
	}
}

// stop terminates the server gracefully, killing it if it has not
// exited within 15 seconds, and waits until it has.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-s.drained
		exited <- s.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-exited
		return errors.New("server ignored SIGTERM for 15s and was killed")
	}
}

// cpuTime is the server's user+system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	f := strings.Fields(string(data[strings.LastIndexByte(string(data), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", data)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB is the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

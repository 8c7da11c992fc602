package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is a child process (bpserve or bpworker) the benchmark started. It
// is always stopped and waited for before the benchmark exits.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

// procs tracks every live child so a failing or interrupted run still
// stops them all.
var (
	procsMu sync.Mutex
	procs   []*proc
)

// startProc starts bin with args, its output going to logPath.
func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: lf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	procsMu.Lock()
	procs = append(procs, p)
	procsMu.Unlock()
	return p, nil
}

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// peakRSSMiB reads the process's VmHWM (peak resident set) from /proc.
func (p *proc) peakRSSMiB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// stop sends SIGTERM, waits up to grace for a clean exit, then kills. It
// returns once the process has ended.
func (p *proc) stop(grace time.Duration) {
	if !p.exited() {
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(grace):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
	procsMu.Lock()
	defer procsMu.Unlock()
	for i, q := range procs {
		if q == p {
			procs = append(procs[:i], procs[i+1:]...)
			break
		}
	}
}

// stopAll stops every live child; used on the way out of a failed or
// interrupted run.
func stopAll() {
	for {
		procsMu.Lock()
		if len(procs) == 0 {
			procsMu.Unlock()
			return
		}
		p := procs[len(procs)-1]
		procsMu.Unlock()
		p.stop(2 * time.Second)
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitHTTP polls url until it answers 200, the process exits, or the
// deadline passes.
func waitHTTP(p *proc, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up (see %s)", p.name, p.log.Name())
		}
		if resp, err := c.Get(url); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s did not answer %s within %v", p.name, url, timeout)
}

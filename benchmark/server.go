package main

import (
	"bufio"
	"bytes"
	"errors"
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

// buildSlserve compiles ./cmd/slserve of the tree under test into dir.
func buildSlserve(root, dir string) (string, error) {
	bin := filepath.Join(dir, "slserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/slserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building slserve in %s: %w", root, err)
	}
	return bin, nil
}

// live holds every server process still running, so every exit path can
// stop them.
var live struct {
	sync.Mutex
	procs map[*proc]bool
}

// stopAll kills every process still running and waits for each.
func stopAll() {
	live.Lock()
	procs := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// proc is one slserve process.
type proc struct {
	cmd  *exec.Cmd
	addr string // host:port it serves on
	done chan struct{}
}

// addrWatcher scans a child's stdout for slserve's "listening on ADDR" line.
type addrWatcher struct {
	mu    sync.Mutex
	buf   []byte
	found chan string
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.found == nil {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if j := strings.Index(line, "listening on "); j >= 0 {
			w.found <- strings.TrimSpace(line[j+len("listening on "):])
			w.found = nil
			return len(p), nil
		}
	}
}

// startProc starts bin with args and waits for it to report its address.
func startProc(bin string, args ...string) (*proc, error) {
	found := make(chan string, 1)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &addrWatcher{found: found}
	cmd.Stderr = os.Stderr
	// The kernel kills the server if the benchmark dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*proc]bool{}
	}
	live.procs[p] = true
	live.Unlock()
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	select {
	case p.addr = <-found:
		return p, nil
	case <-p.done:
		p.forget()
		return nil, fmt.Errorf("%s %s exited before listening", bin, strings.Join(args, " "))
	case <-time.After(10 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s %s did not report its address", bin, strings.Join(args, " "))
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) url() string { return "http://" + p.addr }

func (p *proc) forget() {
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// stop asks the server to drain (SIGTERM) and kills it if it has not exited
// within five seconds; it returns once the process is gone.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process needs no signal
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.forget()
}

// kill is kill -9 and wait.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // an exited process needs no signal
	<-p.done
	p.forget()
}

// freePort reserves a loopback port for a server that cannot report the one
// it bound (slserve -frontend prints its -addr verbatim).
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserving a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// waitHealthy polls base/healthz until it answers 200.
func waitHealthy(hc *http.Client, base string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not healthy after 15s (last error %v)", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Frontend flags of the routed workload: the chaos smoke's health and
// handoff settings, so a killed owner is noticed in ~200 ms.
var frontendFlags = []string{
	"-health-interval", "100ms", "-health-down-after", "2", "-health-up-after", "1",
	"-handoff-drain", "200ms", "-retries", "5",
}

// topology is the set of server processes one workload drives: one backend,
// or two backends behind slserve -frontend.
type topology struct {
	bin      string
	backends []*proc
	front    *proc
}

// entry is the address clients send to.
func (t *topology) entry() string {
	if t.front != nil {
		return t.front.addr
	}
	return t.backends[0].addr
}

func (t *topology) all() []*proc {
	ps := append([]*proc(nil), t.backends...)
	if t.front != nil {
		ps = append(ps, t.front)
	}
	return ps
}

// routedAddrs are the address pairs the routed workload's backends try, in
// order. The frontend places objects by rendezvous hashing over the backend
// URLs, so fixed URLs give every run the same placement, and with it the
// same split of keys, memory and load across the backends. A pair that is
// in use falls back to the next; the last resort is any free port.
var routedAddrs = [][2]string{
	{"127.0.0.1:18431", "127.0.0.1:18432"},
	{"127.0.0.1:28431", "127.0.0.1:28432"},
	{"127.0.0.1:0", "127.0.0.1:0"},
}

func startTopology(bin string, routed bool, hc *http.Client) (*topology, error) {
	t := &topology{bin: bin}
	if !routed {
		p, err := startProc(bin, "-addr", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		t.backends = []*proc{p}
	}
	for i := 0; routed && t.backends == nil; i++ {
		pair := routedAddrs[i]
		var err error
		for _, addr := range pair {
			var p *proc
			if p, err = startProc(bin, "-addr", addr); err != nil {
				break
			}
			t.backends = append(t.backends, p)
		}
		if err != nil {
			t.stop()
			t.backends = nil
			if i == len(routedAddrs)-1 {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "benchmark: backends on %v unavailable (%v); trying the next pair\n", pair, err)
		}
	}
	if routed {
		addr, err := freePort()
		if err != nil {
			t.stop()
			return nil, err
		}
		urls := []string{t.backends[0].url(), t.backends[1].url()}
		args := append([]string{"-frontend", "-addr", addr, "-backends", strings.Join(urls, ",")}, frontendFlags...)
		if t.front, err = startProc(bin, args...); err != nil {
			t.stop()
			return nil, err
		}
	}
	for _, p := range t.all() {
		if err := waitHealthy(hc, p.url()); err != nil {
			t.stop()
			return nil, err
		}
	}
	return t, nil
}

func (t *topology) stop() {
	for _, p := range t.all() {
		p.stop()
	}
}

// restartBackend starts an empty backend on the address backend i served.
func (t *topology) restartBackend(i int) error {
	p, err := startProc(t.bin, "-addr", t.backends[i].addr)
	if err != nil {
		return err
	}
	t.backends[i] = p
	return nil
}

// rssMB sums the servers' peak resident set (VmHWM).
func (t *topology) rssMB() (float64, error) {
	var kb int64
	for _, p := range t.all() {
		v, err := procHWMkB(p.pid())
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// cpuMS sums the servers' user+system CPU time.
func (t *topology) cpuMS() (float64, error) {
	var ms float64
	for _, p := range t.all() {
		v, err := procCPUms(strconv.Itoa(p.pid()))
		if err != nil {
			return 0, err
		}
		ms += v
	}
	return ms, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux fixes
// it at 100 on every architecture the toolchain targets.
const clockTick = 100

// procCPUms reads utime+stime of /proc/<pid>/stat ("self" for this process)
// in milliseconds.
func procCPUms(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, fmt.Errorf("reading cpu time: %w", err)
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	// After ")": state is field 3, utime field 14, stime field 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat cpu fields")
	}
	return float64(ut+st) * 1000 / clockTick, nil
}

// procHWMkB reads VmHWM (peak resident set, kB) from /proc/<pid>/status.
func procHWMkB(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

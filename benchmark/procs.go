package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process the harness starts so that a deferred
// cleanup or a signal handler can kill whatever is still running. Each
// started process is tracked until its owner has reaped it.
var children struct {
	mu      sync.Mutex
	cmds    map[*exec.Cmd]bool
	running sync.WaitGroup
}

func track(cmd *exec.Cmd) {
	children.mu.Lock()
	defer children.mu.Unlock()
	if children.cmds == nil {
		children.cmds = make(map[*exec.Cmd]bool)
	}
	children.cmds[cmd] = true
	children.running.Add(1)
}

func untrack(cmd *exec.Cmd) {
	children.mu.Lock()
	defer children.mu.Unlock()
	delete(children.cmds, cmd)
	children.running.Done()
}

// killChildren SIGKILLs every tracked process still running and waits
// (bounded) until their owners have reaped them.
func killChildren() {
	children.mu.Lock()
	for cmd := range children.cmds {
		_ = cmd.Process.Kill() // a process that exited meanwhile reports an error we do not need
	}
	children.mu.Unlock()
	reaped := make(chan struct{})
	go func() {
		children.running.Wait()
		close(reaped)
	}()
	select {
	case <-reaped:
	case <-time.After(5 * time.Second):
	}
}

// childAttr kills a child with the harness even when the harness itself
// is SIGKILLed and its cleanup never runs.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// buildBinaries compiles cmd/igpart and cmd/igpartd from the checkout
// at root into its .bench_build/bin. Build time is not part of any
// metric.
func buildBinaries(root string) (igpart, igpartd string, err error) {
	dir, err := filepath.Abs(filepath.Join(root, ".bench_build", "bin"))
	if err != nil {
		return "", "", err
	}
	igpart = filepath.Join(dir, "igpart")
	igpartd = filepath.Join(dir, "igpartd")
	for _, b := range []struct{ out, pkg string }{{igpart, "./cmd/igpart"}, {igpartd, "./cmd/igpartd"}} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = root
		cmd.SysProcAttr = childAttr()
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", "", fmt.Errorf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}
	return igpart, igpartd, nil
}

var listenRE = regexp.MustCompile(`igpartd: listening on ([0-9.]+:[0-9]+)`)

// daemon is one running igpartd process.
type daemon struct {
	name string
	addr string // host:port from the "listening on" log line
	cmd  *exec.Cmd

	exited chan struct{} // closed once Wait returned
	logMu  sync.Mutex
	log    strings.Builder
}

// startDaemon boots igpartd on a free loopback port and returns once it
// logged its address and /readyz answers 200.
func startDaemon(bin, name string, args ...string) (*daemon, error) {
	d := &daemon{name: name, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.SysProcAttr = childAttr()
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	track(d.cmd)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.log.WriteString(line + "\n")
			d.logMu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		// The pipe reaches EOF when the process exits; Wait may only run
		// after every read from it is done.
		_ = d.cmd.Wait() // the exit status is judged by stop from the log
		untrack(d.cmd)
		close(d.exited)
	}()
	select {
	case d.addr = <-addrCh:
	case <-d.exited:
		return nil, fmt.Errorf("%s exited during startup:\n%s", name, d.logText())
	case <-time.After(10 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s never logged its address:\n%s", name, d.logText())
	}
	if err := waitReady(d.addr, 10*time.Second); err != nil {
		d.kill()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

func (d *daemon) url() string { return "http://" + d.addr }

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// kill SIGKILLs the daemon and waits for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the process already exited
	<-d.exited
}

// peakRSSKB reads the daemon's high-water resident set (VmHWM) in KiB.
func (d *daemon) peakRSSKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM line")
}

// stop sends SIGTERM and waits for the graceful drain; a daemon that does
// not log "shutdown complete" within the grace period is killed and the
// stop reported as failed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: SIGTERM: %w", d.name, err)
	}
	select {
	case <-d.exited:
	case <-time.After(40 * time.Second):
		d.kill()
		return fmt.Errorf("%s did not drain within 40s", d.name)
	}
	if !strings.Contains(d.logText(), "igpartd: shutdown complete") {
		return fmt.Errorf("%s exited without a clean drain:\n%s", d.name, d.logText())
	}
	return nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(addr string, budget time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		resp, err := c.Get("http://" + addr + "/readyz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("/readyz at %s never answered 200", addr)
}

// cliRun is the outcome of one igpart process.
type cliRun struct {
	stdout  string
	wall    time.Duration
	maxRSSK int64 // getrusage ru_maxrss, KiB
}

// runCLI executes igpart with args and captures its output.
func runCLI(bin string, args ...string) (cliRun, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = childAttr()
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return cliRun{}, err
	}
	track(cmd)
	err := cmd.Wait()
	wall := time.Since(start)
	untrack(cmd)
	if err != nil {
		return cliRun{}, fmt.Errorf("igpart %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	r := cliRun{stdout: stdout.String(), wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSSK = ru.Maxrss
	}
	return r, nil
}

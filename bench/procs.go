package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one program the benchmark started. Every child leads its own
// process group, so whatever it forks (alstrain's workers) is killed and
// accounted for with it.
type child struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	waited  chan struct{} // closed once Wait has returned
	waitErr error
}

// procSet owns every child of one benchmark run so that a single call kills
// them all — at normal exit, on a failure path, and from the signal handler.
type procSet struct {
	mu       sync.Mutex
	children []*child
	logDir   string
	env      []string
}

func newProcSet(logDir string, childProcs int) *procSet {
	return &procSet{
		logDir: logDir,
		env:    append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs)),
	}
}

// start launches bin with args in a new process group, its output captured
// in the log directory under name.
func (ps *procSet) start(name, bin string, args ...string) (*child, error) {
	logPath := filepath.Join(ps.logDir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = ps.env
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, logPath: logPath, waited: make(chan struct{})}
	go func() {
		c.waitErr = cmd.Wait()
		close(c.waited)
	}()
	ps.mu.Lock()
	ps.children = append(ps.children, c)
	ps.mu.Unlock()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// wait blocks until the child has exited and returns its exit error.
func (c *child) wait() error {
	<-c.waited
	return c.waitErr
}

func (c *child) exited() bool {
	select {
	case <-c.waited:
		return true
	default:
		return false
	}
}

// cpuSeconds is the kernel's accounting of user+system CPU for the exited
// child and every descendant it waited for (Linux wait4 reports both).
func (c *child) cpuSeconds() float64 {
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return rusageSeconds(ru)
}

func rusageSeconds(ru *syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// selfCPUSeconds is the user+system CPU this process has used so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageSeconds(&ru)
}

// logTail returns the last lines of the child's captured output, for
// failure reports.
func (c *child) logTail(lines int) string {
	b, err := os.ReadFile(c.logPath)
	if err != nil {
		return err.Error()
	}
	all := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}

// stop terminates the child's whole process group: SIGTERM, then SIGKILL
// for whatever is left after the grace period.
func (c *child) stop(grace time.Duration) {
	if c.exited() && len(groupMembers(c.pid())) == 0 {
		return
	}
	syscall.Kill(-c.pid(), syscall.SIGTERM)
	select {
	case <-c.waited:
	case <-time.After(grace):
	}
	syscall.Kill(-c.pid(), syscall.SIGKILL)
	<-c.waited
}

// killAll stops every child still running. Safe to call more than once and
// from the signal handler's goroutine.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	cs := append([]*child(nil), ps.children...)
	ps.mu.Unlock()
	for _, c := range cs {
		c.stop(2 * time.Second)
	}
}

// orphans lists processes that still sit in one of the run's process
// groups after killAll — there must be none.
func (ps *procSet) orphans() []int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var left []int
	for _, c := range ps.children {
		left = append(left, groupMembers(c.pid())...)
	}
	return left
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitFor polls cond every interval until it holds or the timeout passes.
func waitFor(timeout, interval time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(interval)
	}
}

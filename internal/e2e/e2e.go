// Package e2e is the one process harness behind every test that drives the
// real binaries: build a command, start it with its output captured line by
// line, wait for the line it announces itself with, talk HTTP to it, scrape
// its /metrics through the strict exposition parser, and have it killed and
// reaped however the test ends. A call that fails fails the calling test
// with everything the process printed.
package e2e

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// lineTimeout bounds every wait on a process. A smoke run's slowest line is
// seconds away on an idle box; the slack is for a loaded one.
const lineTimeout = 2 * time.Minute

// Build compiles repro/cmd/<name> into a directory of the test's own,
// with the given build tags, and returns the binary's path.
func Build(t testing.TB, name string, tags ...string) string {
	t.Helper()
	return buildPackage(t, "repro/cmd/"+name, tags...)
}

func buildPackage(t testing.TB, pkg string, tags ...string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-tags", strings.Join(tags, ","), "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s (tags %q): %v\n%s", pkg, tags, err, out)
	}
	return bin
}

// Proc is a started process; its stdout and stderr arrive on one pipe and
// are kept line by line, for the waits and for the failure messages.
type Proc struct {
	t    testing.TB
	cmd  *exec.Cmd
	done chan struct{} // closed once the output has ended and the process is reaped

	mu    sync.Mutex
	lines []string
	grown chan struct{} // closed and replaced each time lines grows
}

// Start launches bin and registers its kill-and-reap with t.Cleanup, so a
// failing lane cannot leave it behind; on Linux the child is also killed when
// the test binary itself dies (a -timeout panic runs no cleanups).
func Start(t testing.TB, bin string, args ...string) *Proc {
	t.Helper()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = pw, pw
	cmd.SysProcAttr = dieWithParent()
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		t.Fatalf("starting %s: %v", bin, err)
	}
	p := &Proc{t: t, cmd: cmd, done: make(chan struct{}), grown: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			close(p.grown)
			p.grown = make(chan struct{})
			p.mu.Unlock()
		}
		pr.Close()
		cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		pr.Close() // ends the reader even if a grandchild still holds the pipe
		<-p.done
	})
	return p
}

// Pid returns the process ID.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Signal sends sig to the process.
func (p *Proc) Signal(sig os.Signal) {
	p.t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		p.t.Fatalf("signalling %s with %v: %v", p.cmd.Path, sig, err)
	}
}

// Output returns everything the process has printed so far.
func (p *Proc) Output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// WaitLine blocks until the process has printed a line starting with prefix
// — before or after the call — and returns the rest of the first such line.
// A process that exits without printing it, or a timeout, fails the test.
func (p *Proc) WaitLine(prefix string) string {
	p.t.Helper()
	deadline := time.After(lineTimeout)
	ended := false
	for from := 0; ; {
		p.mu.Lock()
		lines, grown := p.lines, p.grown
		p.mu.Unlock()
		for _, line := range lines[from:] {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return rest
			}
		}
		if ended {
			p.t.Fatalf("%s exited (code %d) before printing %q; output:\n%s", p.cmd.Path, p.cmd.ProcessState.ExitCode(), prefix, p.Output())
		}
		from = len(lines)
		select {
		case <-grown:
		case <-p.done:
			ended = true // every line is in: the next scan is the last
		case <-deadline:
			p.t.Fatalf("%s did not print %q within %s; output:\n%s", p.cmd.Path, prefix, lineTimeout, p.Output())
		}
	}
}

// Wait blocks until the process has exited and everything that inherited its
// stdout has closed it, and returns the exit code (-1: killed by a signal).
func (p *Proc) Wait() int {
	p.t.Helper()
	select {
	case <-p.done:
	case <-time.After(lineTimeout):
		p.t.Fatalf("%s still running after %s; output:\n%s", p.cmd.Path, lineTimeout, p.Output())
	}
	return p.cmd.ProcessState.ExitCode()
}

// Run runs bin to completion, requires exit code 0, and returns its output.
func Run(t testing.TB, bin string, args ...string) string {
	t.Helper()
	p := Start(t, bin, args...)
	if code := p.Wait(); code != 0 {
		t.Fatalf("%s %v: exit code %d; output:\n%s", bin, args, code, p.Output())
	}
	return p.Output()
}

// Get returns the body of a GET that must answer 200.
func Get(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d (read error: %v): %s", url, resp.StatusCode, err, body)
	}
	return body
}

// GetJSON decodes the body of a GET that must answer 200 into out.
func GetJSON(t testing.TB, url string, out any) {
	t.Helper()
	if err := json.Unmarshal(Get(t, url), out); err != nil {
		t.Fatalf("GET %s: body is not the JSON expected: %v", url, err)
	}
}

// Metrics is one /metrics scrape that passed ValidateExposition.
type Metrics struct {
	t    testing.TB
	Text string
}

// Scrape GETs base+"/metrics"; a body the strict exposition parser rejects,
// or one without a sample, fails the test.
func Scrape(t testing.TB, base string) *Metrics {
	t.Helper()
	text := string(Get(t, base+"/metrics"))
	if n, err := ValidateExposition(strings.NewReader(text)); err != nil || n == 0 {
		t.Fatalf("%s/metrics: invalid exposition (%d samples): %v\n%s", base, n, err, text)
	}
	return &Metrics{t: t, Text: text}
}

// Sum adds up every sample of one metric name; no sample fails the test.
func (m *Metrics) Sum(name string) float64 {
	m.t.Helper()
	var sum float64
	seen := false
	for _, line := range strings.Split(m.Text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		if err != nil {
			m.t.Fatalf("sample %q: %v", line, err)
		}
		sum += v
		seen = true
	}
	if !seen {
		m.t.Fatalf("metric %s not present in the scrape:\n%s", name, m.Text)
	}
	return sum
}

package e2e

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// fakeT stands in for the test a harness call is made from: Fatalf records
// the message and ends the calling goroutine as the real one would, and the
// cleanups run when the test under observation says so.
type fakeT struct {
	testing.TB
	fatal    string
	cleanups []func()
}

func (f *fakeT) Helper()           {}
func (f *fakeT) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeT) Fatal(args ...any) { f.Fatalf("%s", fmt.Sprint(args...)) }
func (f *fakeT) Fatalf(format string, args ...any) {
	f.fatal = fmt.Sprintf(format, args...)
	panic(f)
}

// run calls fn with a fakeT standing in for t, runs the cleanups fn
// registered, and returns the fatal message ("" when fn returned).
func run(t *testing.T, fn func(ft *fakeT)) string {
	t.Helper()
	ft := &fakeT{TB: t}
	func() {
		defer func() {
			if r := recover(); r != nil && r != any(ft) {
				panic(r)
			}
		}()
		fn(ft)
	}()
	for i := len(ft.cleanups) - 1; i >= 0; i-- {
		ft.cleanups[i]()
	}
	return ft.fatal
}

func helper(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs a helper binary")
	}
	return buildPackage(t, "repro/internal/e2e/testdata/helper")
}

// A child that ignores SIGTERM is still killed and reaped by the cleanup
// Start registered: once it has run, the PID is gone — not even a zombie.
func TestCleanupReapsStubbornChild(t *testing.T) {
	bin := helper(t)
	var pid int
	msg := run(t, func(ft *fakeT) {
		p := Start(ft, bin, "stubborn")
		var err error
		if pid, err = strconv.Atoi(p.WaitLine("helper: pid ")); err != nil || pid != p.Pid() {
			t.Errorf("announced pid %d (%v), Pid() = %d", pid, err, p.Pid())
		}
		p.Signal(syscall.SIGTERM)
		time.Sleep(100 * time.Millisecond)
		if err := syscall.Kill(pid, 0); err != nil {
			t.Errorf("the helper died of SIGTERM (%v); the test proves nothing", err)
		}
	})
	if msg != "" {
		t.Fatalf("harness failed: %s", msg)
	}
	if _, err := os.Stat("/proc/" + strconv.Itoa(pid)); err == nil {
		t.Fatalf("pid %d still exists after cleanup", pid)
	}
}

// WaitLine on a process that exits without printing the line fails the
// test, and the message carries the exit code and both output streams.
func TestWaitLineReportsEarlyExit(t *testing.T) {
	bin := helper(t)
	msg := run(t, func(ft *fakeT) {
		Start(ft, bin, "exit-early").WaitLine("helper: listening on ")
		t.Error("WaitLine returned for a line that was never printed")
	})
	for _, want := range []string{"code 3", "helper: about to fail", "helper: the reason, on stderr", `"helper: listening on "`} {
		if !strings.Contains(msg, want) {
			t.Errorf("failure message lacks %q:\n%s", want, msg)
		}
	}

	if code := Start(t, bin, "exit-early").Wait(); code != 3 {
		t.Errorf("Wait() = %d, want 3", code)
	}
	if msg := run(t, func(ft *fakeT) { Run(ft, bin, "exit-early") }); !strings.Contains(msg, "exit code 3") {
		t.Errorf("Run of a failing process: %q", msg)
	}
}

// Scrape holds every body to ValidateExposition: a malformed one fails
// the test, a valid one answers Sum per metric name.
func TestScrapeRejectsMalformedExposition(t *testing.T) {
	bin := helper(t)
	base := "http://" + Start(t, bin, "serve").WaitLine("helper: listening on ")

	msg := run(t, func(ft *fakeT) { Scrape(ft, base) })
	if !strings.Contains(msg, "invalid exposition") || !strings.Contains(msg, `als_x{a="1" 2`) {
		t.Errorf("malformed exposition: failure message %q", msg)
	}

	m := Scrape(t, base+"/good")
	if got := m.Sum("als_x"); got != 5 {
		t.Errorf("Sum(als_x) = %g, want 5 (als_xy must not count)", got)
	}
	if msg := run(t, func(ft *fakeT) { (&Metrics{t: ft, Text: m.Text}).Sum("als_absent") }); !strings.Contains(msg, "als_absent not present") {
		t.Errorf("Sum of an absent metric: %q", msg)
	}

	var doc struct{ Answer int }
	if GetJSON(t, base+"/json", &doc); doc.Answer != 42 {
		t.Errorf("GetJSON decoded %+v", doc)
	}
	if msg := run(t, func(ft *fakeT) { Get(ft, base+"/nowhere") }); !strings.Contains(msg, "HTTP 404") {
		t.Errorf("Get of a 404: %q", msg)
	}
}

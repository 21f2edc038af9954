package shard_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/e2e"
)

// The fault-smoke lane runs the supervision layer through the real alstrain
// binary: a worker killed with SIGKILL mid-iteration is respawned and the
// run still produces a model byte-identical to a clean one; SIGTERM stops
// the coordinator gracefully with a resumable checkpoint; a coordinator
// killed with SIGKILL leaves no orphan worker processes.
//
// Every distributed run injects a tolerated 3-second chaosnet delay at
// iteration 2 (shorter than the 5s heartbeat timeout, so it causes no
// failure) purely to hold the run open: the signal under test is guaranteed
// to land mid-run regardless of how fast the machine trains.
const faultStall = "delay=0:in:4:3s"

// faultTrainArgs is every run's base command line (a literal's capacity is
// its length, so appending to it copies).
var faultTrainArgs = []string{"-preset", "YMR4", "-scale", "0.02", "-iters", "60",
	"-k", "6", "-test-frac", "0", "-seed", "11"}

// workerPids waits until ranks 0..n-1 have each announced a "worker R pid P"
// line and returns the first PID announced for each, indexed by rank.
func workerPids(t *testing.T, p *e2e.Proc, n int) []int {
	t.Helper()
	pids := make([]int, n)
	for rank := range pids {
		var err error
		if pids[rank], err = strconv.Atoi(p.WaitLine(fmt.Sprintf("worker %d pid ", rank))); err != nil {
			t.Fatalf("worker %d PID line: %v", rank, err)
		}
	}
	return pids
}

// processGone reports whether pid no longer runs (a zombie awaiting a reap
// counts as gone: it computes nothing and exits with its reaper).
func processGone(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	// Field 3, after the parenthesized comm, is the state.
	if i := bytes.LastIndexByte(stat, ')'); i >= 0 && i+2 < len(stat) {
		return stat[i+2] == 'Z' || stat[i+2] == 'X'
	}
	return false
}

func waitGone(t *testing.T, label string, pids []int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		left := 0
		for _, pid := range pids {
			if !processGone(pid) {
				left++
			}
		}
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d worker processes still running (orphans): %v", label, left, pids)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestFaultSmokeKillWorker is the `make fault-smoke` acceptance run: a
// 3-worker training run loses one worker to SIGKILL mid-iteration, respawns
// it, finishes, and the saved model is byte-identical to a clean
// single-process run; /metrics shows a nonzero respawn count and validates
// under the strict exposition parser; no worker outlives the run.
func TestFaultSmokeKillWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alstrain binary")
	}
	bin := e2e.Build(t, "alstrain")
	dir := t.TempDir()

	clean := filepath.Join(dir, "clean.model")
	e2e.Run(t, bin, append(faultTrainArgs, "-out", clean)...)

	faulted := filepath.Join(dir, "faulted.model")
	p := e2e.Start(t, bin, append(faultTrainArgs,
		"-workers", "3", "-out", faulted,
		"-net-chaos", faultStall,
		"-debug-addr", "127.0.0.1:0", "-debug-linger", "60s")...)
	pids := workerPids(t, p, 3)

	// Let the run reach the iteration-2 stall, then kill a worker there.
	time.Sleep(1 * time.Second)
	if err := syscall.Kill(pids[1], syscall.SIGKILL); err != nil {
		t.Fatalf("killing worker 1 (pid %d): %v", pids[1], err)
	}

	// The run must complete: the line follows the atomic model write.
	p.WaitLine("model written to ")
	requireSameModel(t, clean, faulted, "model after worker SIGKILL differs from clean run")

	// Workers were stopped by the coordinator before the model was written:
	// every PID the run announced, the respawned worker's included.
	var all []int
	for _, m := range regexp.MustCompile(`(?m)^worker \d+ pid (\d+)$`).FindAllStringSubmatch(p.Output(), -1) {
		pid, _ := strconv.Atoi(m[1])
		all = append(all, pid)
	}
	if len(all) < 4 {
		t.Fatalf("%d worker PID lines, want the 3 workers and a respawn; output:\n%s", len(all), p.Output())
	}
	waitGone(t, "after completion", all)

	m := e2e.Scrape(t, p.WaitLine("debug server listening on "))
	if n := m.Sum("als_dist_respawns_total"); n < 1 {
		t.Fatalf("als_dist_respawns_total = %g, want >= 1", n)
	}
	if !strings.Contains(m.Text, `als_dist_worker_failures_total{`) {
		t.Fatalf("exposition lacks als_dist_worker_failures_total:\n%s", m.Text)
	}
}

// TestFaultSmokeGracefulShutdown sends SIGTERM mid-run: the coordinator
// must stop at the next iteration boundary with a checkpoint on disk, report
// the run as resumable, exit nonzero with no workers left behind — and a
// -resume rerun must finish with the clean run's exact bytes.
func TestFaultSmokeGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alstrain binary")
	}
	bin := e2e.Build(t, "alstrain")
	dir := t.TempDir()
	ckpts := filepath.Join(dir, "ckpts")

	clean := filepath.Join(dir, "clean.model")
	e2e.Run(t, bin, append(faultTrainArgs, "-out", clean)...)

	p := e2e.Start(t, bin, append(faultTrainArgs,
		"-workers", "2", "-checkpoint-dir", ckpts, "-net-chaos", faultStall)...)
	pids := workerPids(t, p, 2)
	time.Sleep(1 * time.Second) // inside the iteration-2 stall
	p.Signal(syscall.SIGTERM)
	code := p.Wait()
	out := p.Output()
	if code <= 0 {
		t.Fatalf("SIGTERM run: exit code %d, want a nonzero exit of its own; output:\n%s", code, out)
	}
	if !strings.Contains(out, "resumable") {
		t.Fatalf("interrupted run did not report itself resumable:\n%s", out)
	}
	if st, _, err := checkpoint.LoadLatest(checkpoint.OS, ckpts); err != nil || st.Iteration < 1 {
		t.Fatalf("no checkpoint after graceful shutdown: %v", err)
	}
	waitGone(t, "after SIGTERM", pids)

	resumed := filepath.Join(dir, "resumed.model")
	e2e.Run(t, bin, append(faultTrainArgs,
		"-workers", "2", "-checkpoint-dir", ckpts, "-resume", "-out", resumed)...)
	requireSameModel(t, clean, resumed, "resumed model differs from clean run")
}

// TestFaultSmokeCoordinatorKill9 kills the coordinator with SIGKILL — no
// graceful path at all — and requires every worker process to notice the
// dead exchange connection and exit on its own within seconds.
func TestFaultSmokeCoordinatorKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alstrain binary")
	}
	p := e2e.Start(t, e2e.Build(t, "alstrain"), append(faultTrainArgs,
		"-workers", "2", "-net-chaos", faultStall)...)
	pids := workerPids(t, p, 2)
	time.Sleep(1 * time.Second) // inside the iteration-2 stall
	p.Signal(syscall.SIGKILL)
	waitGone(t, "after coordinator SIGKILL", pids)
}

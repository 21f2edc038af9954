package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a few cores of a shared host, and for minutes at a
// time a CPU-second there buys 20-40 % less work: set-up, training and
// serving all slow down together, CPU time included, while nothing this
// benchmark runs has changed. No repetition inside a one-minute run steps
// around that, so the run measures it instead: a speedometer runs one small
// fixed kernel four times a second for the whole run and records what it
// cost, and every timing metric is reported at the nominal cost — multiplied
// by nominal/observed for the phase it was measured in. README.md has the
// measurements behind this.
//
// The kernel is this file's own (a dot-product scan over a 4 MB table: it
// misses the private caches the way the factor scans and gathers do) and
// imports nothing from the repository, so no change to the system can move
// it. Its cost is the thread's CPU time, not wall time: the cores are busy
// with the programs under test, and how long the kernel waited for one says
// nothing about how fast they are.

const (
	speedInterval = 250 * time.Millisecond
	// nominalCost is the kernel's median cost over an undisturbed run on the
	// reference box, so that corrected and raw values agree there.
	nominalCost = 8.7e-3 // CPU seconds

	speedTableLen = 1 << 20 // float32s: 4 MB
	speedWidth    = 64
	speedPasses   = 20
)

type speedSample struct {
	at   time.Time
	cost float64 // thread CPU seconds one kernel run took
}

// span is a stretch of the run a metric was measured in.
type span struct{ from, to time.Time }

type speedometer struct {
	table []float32

	mu      sync.Mutex
	samples []speedSample

	stop, done chan struct{}
}

// startSpeedometer begins sampling; stopAndWait ends it.
func startSpeedometer() *speedometer {
	sp := &speedometer{table: make([]float32, speedTableLen), stop: make(chan struct{}), done: make(chan struct{})}
	for i := range sp.table {
		sp.table[i] = float32(i%977) * 0.001
	}
	go func() {
		defer close(sp.done)
		// One thread for every sample: CLOCK_THREAD_CPUTIME_ID is per thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(speedInterval)
		defer tick.Stop()
		for {
			at := time.Now()
			cost := sp.kernel()
			sp.mu.Lock()
			sp.samples = append(sp.samples, speedSample{at, cost})
			sp.mu.Unlock()
			select {
			case <-sp.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return sp
}

func (sp *speedometer) stopAndWait() {
	close(sp.stop)
	<-sp.done
}

func threadCPUSeconds() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0 // a kernel without the clock: every cost reads 0 and nothing is corrected
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// kernel scores every 64-wide row of the table against a fixed query,
// speedPasses times over, and returns the CPU seconds that took.
func (sp *speedometer) kernel() float64 {
	var query [speedWidth]float32
	for i := range query {
		query[i] = float32(i) * 0.01
	}
	start := threadCPUSeconds()
	var top float32
	for pass := 0; pass < speedPasses; pass++ {
		for r := 0; r+speedWidth <= len(sp.table); r += speedWidth {
			row := sp.table[r : r+speedWidth]
			var s0, s1, s2, s3 float32
			for j := 0; j < speedWidth; j += 4 {
				s0 += row[j] * query[j]
				s1 += row[j+1] * query[j+1]
				s2 += row[j+2] * query[j+2]
				s3 += row[j+3] * query[j+3]
			}
			if s := s0 + s1 + s2 + s3; s > top {
				top = s
			}
		}
	}
	cost := threadCPUSeconds() - start
	if top < 0 {
		sp.table[0] = top // keeps the scan observable
	}
	return cost
}

// costDuring is the median cost of the samples taken inside the spans; when
// they are too short to hold any (toy runs), of all samples so far.
func (sp *speedometer) costDuring(spans ...span) float64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var in, all []float64
	for _, s := range sp.samples {
		all = append(all, s.cost)
		for _, within := range spans {
			if !s.at.Before(within.from) && !s.at.After(within.to) {
				in = append(in, s.cost)
				break
			}
		}
	}
	if len(in) == 0 {
		in = all
	}
	return median(in)
}

// atNominal converts a time or a cost measured while the kernel cost `cost`
// to what it would have been at the nominal cost. Divide a rate by the same
// factor.
func atNominal(cost float64) float64 {
	if !(cost > 0) { // no sample at all
		return 1
	}
	return nominalCost / cost
}

// Package sim is the OpenCL-style execution engine for the simulated
// devices: it launches an NDRange of work-groups over a device's compute
// units and aggregates the device.Counters the kernel charges into per-stage
// and per-compute-unit cycle totals. It keeps the clock only: a kernel is a
// cost function of its task (for ALS, of the row's length), and the factors
// are computed elsewhere, by internal/host.
//
// Work distribution follows the paper's launch scheme (a fixed grid such as
// 8192 groups × 32 work-items, Sec. IV): row tasks are assigned to groups
// grid-stride (group g processes tasks g, g+G, g+2G, …), and groups are
// assigned to compute units round-robin. The simulated execution time is the
// makespan: the largest per-CU sum of group cycles, converted to seconds at
// the device clock. Groups are tallied one after another in grid order, so
// every report is a deterministic function of the launch.
package sim

import (
	"fmt"

	"repro/internal/device"
)

// Stage labels the three phases of the per-row ALS update (Sec. V-C):
// S1 = YᵀY+λI, S2 = Yᵀr_u, S3 = the Cholesky solve.
type Stage int

const (
	S1 Stage = iota
	S2
	S3
	numStages
)

// String returns the paper's stage label.
func (s Stage) String() string {
	switch s {
	case S1:
		return "S1"
	case S2:
		return "S2"
	case S3:
		return "S3"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Acc accumulates a single work-group's charged counters by stage. A kernel
// receives one Acc per group and calls Charge as it works.
type Acc struct {
	stages [numStages]device.Counters
}

// Charge adds counters to the given stage.
func (a *Acc) Charge(s Stage, c device.Counters) {
	a.stages[s].Add(c)
}

// Kernel charges the cost of one task (typically one row of the factor
// update) to the work-group that executes it.
type Kernel func(task int, acc *Acc)

// Launch describes one kernel invocation.
type Launch struct {
	Device    *device.Device
	Groups    int // number of work-groups in the grid (paper: 8192)
	GroupSize int // work-items per group (paper: 32)
	Tasks     int // number of row tasks to cover grid-stride
}

// Report summarizes a kernel run.
type Report struct {
	// StageCycles are total device cycles charged per stage across all
	// groups (drives the Fig. 8 breakdown).
	StageCycles [numStages]float64
	// MakespanCycles is the simulated execution time in cycles: the largest
	// per-compute-unit sum of its groups' cycles.
	MakespanCycles float64
	// Seconds is MakespanCycles at the device clock.
	Seconds float64
	// Total aggregates all counters (diagnostics and tests).
	Total device.Counters
}

// Add merges another report (e.g. the Y-update following the X-update).
func (r *Report) Add(o *Report) {
	for i := range r.StageCycles {
		r.StageCycles[i] += o.StageCycles[i]
	}
	r.MakespanCycles += o.MakespanCycles
	r.Seconds += o.Seconds
	r.Total.Add(o.Total)
}

// StageShare returns each stage's fraction of total charged cycles,
// the quantity Fig. 8's pie charts plot.
func (r *Report) StageShare() [3]float64 {
	var total float64
	for _, c := range r.StageCycles {
		total += c
	}
	var out [3]float64
	if total == 0 {
		return out
	}
	for i, c := range r.StageCycles {
		out[i] = c / total
	}
	return out
}

// Run tallies the launch: each group's tasks are charged grid-stride, and
// the groups land on the device's compute units round-robin.
func Run(l Launch, kernel Kernel) *Report {
	if l.Groups <= 0 || l.GroupSize <= 0 {
		panic(fmt.Sprintf("sim: bad launch geometry %d groups × %d", l.Groups, l.GroupSize))
	}
	groups := l.Groups
	if groups > l.Tasks && l.Tasks > 0 {
		groups = l.Tasks // idle groups contribute nothing
	}

	rep := &Report{}
	cus := l.Device.ComputeUnits
	perCU := make([]float64, cus)
	for g := 0; g < groups; g++ {
		var acc Acc
		for task := g; task < l.Tasks; task += groups {
			kernel(task, &acc)
		}
		var cy float64
		for s, c := range acc.stages {
			stage := l.Device.Cycles(c)
			cy += stage
			rep.StageCycles[s] += stage
			rep.Total.Add(c)
		}
		perCU[g%cus] += cy
	}
	for _, c := range perCU {
		if c > rep.MakespanCycles {
			rep.MakespanCycles = c
		}
	}
	rep.Seconds = l.Device.Seconds(rep.MakespanCycles)
	return rep
}

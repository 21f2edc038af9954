package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
)

// trainJob is what the benchmark observed of one alstrain run.
type trainJob struct {
	dir     string
	launch  time.Time
	wall    float64               // launch -> exit
	cpu     float64               // user+sys of alstrain and the workers it waited for
	peakMB  float64               // peak RSS summed over the job's processes
	visible map[int]time.Duration // iteration -> checkpoint first seen under its final name, since launch
}

// ops counts the operations a run attempted and the ones that failed, and
// keeps the first few failure descriptions for the report.
type ops struct {
	attempted, failed int
	notes             []string
}

func (o *ops) failf(format string, args ...any) {
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// runTrainJob launches one alstrain job of iters iterations into a fresh
// checkpoint directory and watches that directory while it runs. The 5 ms poll is what a
// downstream consumer (alsserve -watch) could at best observe: a checkpoint
// counts from the moment it is visible under its final name.
func runTrainJob(ps *procSet, bins binaries, w workload, in *inputs, seed int64, iters int, dir, name string) (*trainJob, error) {
	launch := time.Now()
	job := &trainJob{dir: dir, launch: launch, visible: map[int]time.Duration{}}
	c, err := ps.start(name, bins.alstrain, w.trainArgs(in.ratingsPath, dir, seed, iters)...)
	if err != nil {
		return nil, err
	}
	scan := func() {
		d, err := os.Open(dir)
		if err != nil {
			return // not created yet
		}
		names, _ := d.Readdirnames(-1)
		d.Close()
		since := time.Since(launch)
		for _, n := range names {
			if it, ok := checkpoint.ParseFileName(n); ok {
				if _, seen := job.visible[it]; !seen {
					job.visible[it] = since
				}
			}
		}
	}
	// Peak RSS per process is VmHWM, which only grows, so sampling it now
	// and then and keeping the last reading per pid loses at most the
	// growth of the final 100 ms.
	hwm := map[int]float64{}
	sampleMem := func() {
		for _, pid := range groupMembers(c.pid()) {
			if mb, err := procMemMB(pid, "VmHWM"); err == nil {
				hwm[pid] = mb
			}
		}
	}
	for tick := 0; !c.exited(); tick++ {
		scan()
		if tick%20 == 0 {
			sampleMem()
		}
		time.Sleep(5 * time.Millisecond)
	}
	job.wall = time.Since(launch).Seconds()
	scan()
	if err := c.wait(); err != nil {
		return job, fmt.Errorf("%s: %w\n%s", name, err, c.logTail(20))
	}
	job.cpu = c.cpuSeconds()
	for _, mb := range hwm {
		job.peakMB += mb
	}
	return job, nil
}

// sameCheckpoints reports the first of b's checkpoints 1..iters that
// differs bytewise from a's, or "" when the two runs wrote identical files.
func sameCheckpoints(a, b *trainJob, iters int) string {
	for it := 1; it <= iters; it++ {
		name := checkpoint.FileName(it)
		fa, erra := os.ReadFile(filepath.Join(a.dir, name))
		fb, errb := os.ReadFile(filepath.Join(b.dir, name))
		if erra != nil || errb != nil {
			return fmt.Sprintf("%s unreadable (%v, %v)", name, erra, errb)
		}
		if !bytes.Equal(fa, fb) {
			return name + " differs"
		}
	}
	return ""
}

// trainPhase is the training side of one run. Job 0 is the run of record:
// it trains the full iteration budget, its checkpoints decide the target
// iteration, and they are what the serving phase publishes. The repeat
// jobs train only as far as that target (a checkpoint does not depend on
// how many iterations follow it) and must reproduce job 0 bytewise. The
// run spaces the jobs out — two before serving, the rest after it — so
// that a slow stretch of the machine, which lasts 10-25 s, cannot cover
// them all.
type trainPhase struct {
	ps      *procSet
	bins    binaries
	w       workload
	in      *inputs
	seed    int64
	workDir string
	o       *ops

	jobs   []*trainJob
	target targetSearch
}

// record runs job 0 and finds the iteration that reaches the target.
func (tp *trainPhase) record() error {
	tp.o.attempted++
	job, err := runTrainJob(tp.ps, tp.bins, tp.w, tp.in, tp.seed, tp.w.Iters, filepath.Join(tp.workDir, "ckpt-0"), "alstrain-0")
	if err != nil {
		tp.o.failf("training job 0: %v", err)
		return err
	}
	tp.jobs = append(tp.jobs, job)
	if tp.target, err = findTarget(tp.w, tp.in, job.dir); err != nil {
		return fmt.Errorf("evaluating checkpoints: %w", err)
	}
	if tp.target.iteration > tp.w.Iters {
		tp.o.failf("training missed its target: objective ratio never reached %g in %d iterations", tp.w.TargetRatio, tp.w.Iters)
	} else if !tp.target.floorOK {
		tp.o.failf("held-out quality %g at iteration %d is past the workload's floor", tp.target.quality, tp.target.iteration)
	}
	return nil
}

// repeat runs one more job, up to the target iteration.
func (tp *trainPhase) repeat() {
	iters := min(tp.target.iteration, tp.w.Iters)
	r := len(tp.jobs)
	tp.o.attempted++
	job, err := runTrainJob(tp.ps, tp.bins, tp.w, tp.in, tp.seed, iters, filepath.Join(tp.workDir, fmt.Sprintf("ckpt-%d", r)), fmt.Sprintf("alstrain-%d", r))
	if err != nil {
		tp.o.failf("training job %d: %v", r, err)
		return
	}
	if diff := sameCheckpoints(tp.jobs[0], job, iters); diff != "" {
		tp.o.failf("training job %d is not byte-identical to job 0: %s", r, diff)
	}
	tp.jobs = append(tp.jobs, job)
}

// stretches cuts a job's way to the target into the intervals between
// consecutive checkpoints becoming visible: launch -> 1, 1 -> 2, ...
func (job *trainJob) stretches(target int) ([]float64, bool) {
	out := make([]float64, 0, target)
	var prev time.Duration
	for it := 1; it <= target; it++ {
		seen, ok := job.visible[it]
		if !ok {
			return nil, false
		}
		out = append(out, (seen - prev).Seconds())
		prev = seen
	}
	return out, true
}

// fastestStretches adds up, stretch by stretch, the shortest time any job
// took for it. Every job has the same number of stretches.
func fastestStretches(perJob [][]float64) float64 {
	var sum float64
	for s := range perJob[0] {
		fastest := perJob[0][s]
		for _, job := range perJob[1:] {
			fastest = min(fastest, job[s])
		}
		sum += fastest
	}
	return sum
}

// report turns the jobs into the training metrics. train_to_target_s is
// the sum, over the stretches between checkpoints, of the fastest job's
// time for that stretch: a neighbour's burst lasts about a second and hits
// a different stretch in each job, so this repeats better than the fastest
// whole job, which needs one job to have escaped every burst.
func (tp *trainPhase) report(speed *speedometer, res *result) {
	target := tp.target.iteration
	if len(tp.jobs) == 0 || target > tp.w.Iters {
		return
	}
	var perJob [][]float64
	var toTarget []float64
	var spans []span
	for r, job := range tp.jobs {
		st, ok := job.stretches(target)
		if !ok {
			tp.o.failf("training job %d: a checkpoint up to %d never became visible", r, target)
			continue
		}
		perJob = append(perJob, st)
		toTarget = append(toTarget, job.visible[target].Seconds())
		spans = append(spans, span{job.launch, job.launch.Add(job.visible[target])})
	}
	if len(perJob) == 0 {
		return
	}
	full := tp.jobs[0]
	var peaks []float64
	for _, job := range tp.jobs {
		peaks = append(peaks, job.peakMB)
	}
	cost := speed.costDuring(spans...)
	res.set("train_to_target_s", fastestStretches(perJob)*atNominal(cost))
	res.aux("train_to_target_s.raw", fastestStretches(perJob))
	res.aux("speed_cost_ms.train", cost*1e3)
	// A Go process's peak depends on where its collections fell: one job's
	// reading moves by a tenth from run to run, the median of four does not.
	res.set("train_peak_rss_mb", median(peaks))
	res.aux("train_peak_rss_mb.job0", full.peakMB)
	res.aux("train_to_target_s.best_job", best(toTarget, true))
	res.aux("train_to_target_s.median_job", median(toTarget))
	res.aux("train_jobs", float64(len(perJob)))
	// Not an end-to-end metric (README.md, "Demoted"): kept for the --out file.
	res.aux("train_cpu_s", full.cpu)
	res.aux("train_wall_s", full.wall)
	res.aux("train_iters_to_target", float64(target))
	res.aux("train_objective_at_target", tp.target.objective)
	res.aux("train_objective_final", tp.target.final)
	res.aux("train_heldout_quality", tp.target.quality)
}

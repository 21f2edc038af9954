// bench is the repository's one benchmark: it carries ratings generated
// from a seed through the real programs — alstrain (checkpointing every
// iteration) -> alsserve -watch (hot-swap) -> HTTP requests — and reports
// seven end-to-end metrics per workload; with --trace 1 it instead times
// every layer in-process and reports the per-layer metrics. BENCHMARK.json
// at the repository root names the metrics, their bounds and the workloads;
// README.md in this directory defines them.
//
//	bash bench/run.sh --workload catalog-implicit-k64-i8 --seed 1 --trace 0
//	bash bench/run.sh --seed 1 --out run.json        # all workloads
//	bash bench/run.sh --repeat 5                     # spread next to each bound
//	bash bench/run.sh --compare old.json new.json    # exits 1 past a bound
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run. The first four fields are the contract line
// the driver reads from the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// The rest goes to the --out file only.
	Workload  string             `json:"workload,omitempty"`
	Traced    bool               `json:"traced,omitempty"`
	Aux       map[string]float64 `json:"aux,omitempty"`       // medians of the repetitions, counts, diagnostics
	Failures  []string           `json:"failures,omitempty"`  // first few failed operations
	Disturbed bool               `json:"disturbed,omitempty"` // the canary moved > 10 % across the run
	TraceFile string             `json:"trace_file,omitempty"`
}

func newResult(w workload, traced bool) *result {
	return &result{Workload: w.Name, Traced: traced, Metrics: map[string]metric{}, Aux: map[string]float64{}}
}

// set records a declared metric; finish attaches the unit BENCHMARK.json
// gives it. aux records everything else.
func (r *result) set(name string, v float64) { r.Metrics[name] = metric{Value: v} }
func (r *result) aux(name string, v float64) { r.Aux[name] = v }

// finish folds the operation counts in and decides correctness: exactly
// the declared metrics present, each finite, and no failed operation.
func (r *result) finish(o *ops, declared []metricSpec) {
	r.Attempted, r.Failed, r.Failures = max(o.attempted, 1), o.failed, o.notes
	r.Correct = o.failed == 0
	got := r.Metrics
	r.Metrics = make(map[string]metric, len(declared))
	for _, m := range declared {
		v, ok := got[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.Correct = false
			r.Failures = append(r.Failures, "metric "+m.Name+" missing or not finite")
			v.Value = 0
		}
		r.Metrics[m.Name] = metric{v.Value, m.Unit}
		delete(got, m.Name)
	}
	for _, name := range sortedKeys(got) {
		r.Correct = false
		r.Failures = append(r.Failures, "metric "+name+" is not declared in BENCHMARK.json")
	}
}

// metricSpec and manifest mirror BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// findRoot walks up from the working directory to the checkout root: the
// directory holding BENCHMARK.json and this package.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json with a bench/ beside it above the working directory")
		}
		dir = parent
	}
}

// binaries are the programs under test, built from the checkout.
type binaries struct{ alstrain, alsserve, alsfront string }

// buildBinaries compiles the three programs into dir. With a warm build
// cache this is a staleness check of well under a second; it is not part of
// setup_s (see README.md).
func buildBinaries(root, dir string) (binaries, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/alstrain", "./cmd/alsserve", "./cmd/alsfront")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return binaries{
		alstrain: filepath.Join(dir, "alstrain"),
		alsserve: filepath.Join(dir, "alsserve"),
		alsfront: filepath.Join(dir, "alsfront"),
	}, nil
}

// environment is recorded in every output file. The reference box has 2
// cores: nothing here measures or implies scaling beyond that.
type environment struct {
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	ChildGOMAXPROCS int    `json:"child_gomaxprocs"`
	GoVersion       string `json:"go_version"`
	CPUModel        string `json:"cpu_model"`
	GitCommit       string `json:"git_commit"`
	Seed            int64  `json:"seed"`
	Seconds         int    `json:"seconds"`
	Note            string `json:"note"`
}

func describeEnvironment(root string, seed int64, seconds int) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), ChildGOMAXPROCS: childProcs(),
		GoVersion: runtime.Version(), CPUModel: "unknown", GitCommit: "unknown",
		Seed: seed, Seconds: seconds,
		Note: "all processes share these cores with the load generator; no scaling beyond 2 cores is measured or implied",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

// childProcs is the GOMAXPROCS every child runs with, and the number of
// closed-loop clients: min(nproc, 2).
func childProcs() int { return min(runtime.NumCPU(), 2) }

// canary spins a fixed integer recurrence for 0.3 s and returns millions
// of steps per second: a reading of how fast this process runs right now,
// taken before and after a workload to flag a disturbed run.
func canary() float64 {
	x := uint64(88172645463325252)
	steps := 0
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		for i := 0; i < 100000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		steps += 100000
	}
	if x == 0 {
		steps++ // keeps the recurrence observable
	}
	return float64(steps) / time.Since(start).Seconds() / 1e6
}

// runner holds what every workload run of one invocation shares.
type runner struct {
	root    string
	man     *manifest
	bins    binaries
	workDir string // scratch for this invocation, removed at exit
	seconds int
	// Repetition counts; the smoke test lowers them.
	setupReps, trainReps, segments int
	procs                          *procSet
}

// plan splits --seconds over the serving phase: a tenth is warm-up, the
// rest is `segments` equal measured segments (15 of about 2 s by default;
// README.md has the measurement behind that choice).
func (rn *runner) plan() servePlan {
	total := time.Duration(rn.seconds) * time.Second
	warm := total / 10
	return servePlan{warmup: warm, segment: (total - warm) / time.Duration(rn.segments),
		segments: rn.segments, clients: childProcs()}
}

// runUntraced measures the end-to-end metrics of one workload on the real
// binaries, with no tracing anywhere.
func (rn *runner) runUntraced(w workload, seed int64) (*result, error) {
	res, o := newResult(w, false), &ops{}
	dir := filepath.Join(rn.workDir, w.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	before := canary()
	speed := startSpeedometer()
	defer speed.stopAndWait()

	// Set-up is repeated, and so is training; the repetitions are spread
	// over the run (see trainPhase). The inputs of the first set-up are the
	// ones every program reads; the later ones write into scratch directories.
	var setup []float64
	var setupSpans []span
	setUp := func(into string) (*inputs, error) {
		if err := os.MkdirAll(into, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		in, err := prepareInputs(context.Background(), w, seed, into)
		setup = append(setup, time.Since(start).Seconds())
		setupSpans = append(setupSpans, span{start, time.Now()})
		return in, err
	}
	in, err := setUp(dir)
	if err != nil {
		return nil, err
	}
	tp := &trainPhase{ps: rn.procs, bins: rn.bins, w: w, in: in, seed: seed, workDir: dir, o: o}
	if err := tp.record(); err != nil {
		return nil, err
	}
	moreSetups, moreJobs := rn.setupReps-1, rn.trainReps-1
	if moreJobs > 0 {
		tp.repeat()
		moreJobs--
	}

	publish := time.Now()
	fl, err := startFleet(rn.procs, rn.bins, w, in, tp.jobs[0].dir)
	if err != nil {
		return nil, err
	}
	res.aux("publish_s", time.Since(publish).Seconds())
	err = servePhase(fl, w, in, tp.jobs[0].dir, seed, rn.plan(), speed, o, res)
	for _, c := range fl.procs {
		c.stop(2 * time.Second)
	}
	if err != nil {
		return nil, err
	}

	for ; moreSetups > 0 || moreJobs > 0; moreSetups, moreJobs = moreSetups-1, moreJobs-1 {
		if moreSetups > 0 {
			scratch := filepath.Join(dir, "setup-again")
			if _, err := setUp(scratch); err != nil {
				return nil, err
			}
			os.RemoveAll(scratch)
		}
		if moreJobs > 0 {
			tp.repeat()
		}
	}
	cost := speed.costDuring(setupSpans...)
	res.set("setup_s", median(setup)*atNominal(cost))
	res.aux("setup_s.raw", median(setup))
	res.aux("speed_cost_ms.setup", cost*1e3)
	tp.report(speed, res)
	if left := rn.procs.orphans(); len(left) > 0 {
		o.failf("orphan processes after shutdown: %v", left)
	}
	after := canary()
	res.aux("canary_before", before)
	res.aux("canary_after", after)
	res.Disturbed = math.Abs(after-before) > 0.1*math.Max(after, before)
	res.finish(o, rn.man.EndToEnd)
	return res, nil
}

// output is the --out file: one environment block and one result per
// workload.
type output struct {
	Schema      string             `json:"schema"`
	Environment environment        `json:"environment"`
	Workloads   map[string]*result `json:"workloads"`
}

func (rn *runner) run(names []string, seed int64, traced bool) (*output, error) {
	out := &output{Schema: "als-pipeline-bench/1", Environment: describeEnvironment(rn.root, seed, rn.seconds),
		Workloads: map[string]*result{}}
	for _, name := range names {
		w, err := workloadByName(name)
		if err != nil {
			return nil, err
		}
		var res *result
		if traced {
			res, err = rn.runTraced(w, seed)
		} else {
			res, err = rn.runUntraced(w, seed)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out.Workloads[name] = res
	}
	return out, nil
}

// printTable writes one workload's metrics by name with units, and its
// operation counts, for a human reader.
func printTable(w *os.File, res *result, specs []metricSpec) {
	fmt.Fprintf(w, "%s (%s)\n", res.Workload, map[bool]string{false: "end to end, tracing off", true: "per layer, traced"}[res.Traced])
	for _, m := range specs {
		fmt.Fprintf(w, "  %-28s %16.10g %s\n", m.Name, res.Metrics[m.Name].Value, res.Metrics[m.Name].Unit)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed", res.Attempted, res.Failed)
	if res.Disturbed {
		fmt.Fprint(w, "  [disturbed: canary moved > 10 %]")
	}
	fmt.Fprintln(w)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workloadFlag := flag.String("workload", "", "workload to run (default: all of BENCHMARK.json's)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 0, "length of the serving phase (default: BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1: time every layer in-process and report the per-layer metrics instead")
	outPath := flag.String("out", "", "also write the full result (metrics, medians, environment) to this JSON file")
	repeat := flag.Int("repeat", 0, "run K times on seeds seed..seed+K-1 and print each metric's spread next to its bound")
	compare := flag.Bool("compare", false, "compare two --out files given as arguments; exit 1 when the second is worse past a bound")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	man, err := loadManifest(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: --compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, man, flag.Arg(0), flag.Arg(1))
	}

	// In-process layer timings use the same parallelism the children get.
	runtime.GOMAXPROCS(childProcs())
	buildDir := filepath.Join(root, ".bench_build")
	rn := &runner{root: root, man: man, seconds: *seconds, setupReps: 3, trainReps: 4, segments: 15}
	if rn.seconds <= 0 {
		rn.seconds = man.RunSeconds
	}
	if rn.bins, err = buildBinaries(root, filepath.Join(buildDir, "bin")); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// Fixed-width names: the training exchange's byte count includes the
	// rating file's path, and it must repeat exactly from run to run.
	rn.workDir = filepath.Join(buildDir, fmt.Sprintf("work-%010d", os.Getpid()))
	os.RemoveAll(rn.workDir) // a crashed run with a recycled pid
	if err = os.MkdirAll(rn.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rn.procs = newProcSet(rn.workDir, childProcs())
	cleanup := func() {
		rn.procs.killAll()
		os.RemoveAll(rn.workDir)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	names := []string{*workloadFlag}
	if *workloadFlag == "" {
		names = names[:0]
		for _, w := range man.Workloads {
			names = append(names, w.Name)
		}
	}
	if *repeat > 0 {
		return rn.repeat(os.Stdout, names, *seed, *repeat)
	}
	out, err := rn.run(names, *seed, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	specs := man.EndToEnd
	if *trace == 1 {
		specs = man.PerLayer
	}
	code := 0
	for _, name := range names {
		res := out.Workloads[name]
		printTable(os.Stderr, res, specs)
		if !res.Correct {
			code = 1
		}
	}
	if *outPath != "" {
		b, _ := json.MarshalIndent(out, "", "  ")
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The contract line: the last line of standard output is one JSON
	// object. With several workloads their metrics are prefixed by name.
	fmt.Println(contractLine(out, names))
	return code
}

func contractLine(out *output, names []string) string {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res := out.Workloads[name]
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			line.Metrics[k] = v
		}
	}
	b, _ := json.Marshal(line)
	return string(b)
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

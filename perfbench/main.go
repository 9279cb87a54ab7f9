// Command perfbench is the repository benchmark: three workloads that
// drive the public spmvtuner facade end to end (cold tuning of a suite
// of matrices, an out-of-cache conjugate-gradient solve, and open-loop
// serving) and, with --trace 1, a traced run that attributes the time
// to the library's layers.
//
// Run it from the repository root through the wrapper, which builds
// this module and keeps every build and run artifact under
// .bench_build/:
//
//	python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every answer the library
// returns in a run is checked against the sequential reference kernel;
// any wrong answer, error or refusal is counted in failed and makes the
// command exit with status 1. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one named benchmark scenario. run measures it with
// tracing off and fills the end-to-end metrics; traced measures it with
// spans recorded and fills the per-layer metrics.
type workload struct {
	name   string
	run    func(env *env) error
	traced func(env *env) error
}

var workloads = []workload{
	{"suite-cold", runSuiteCold, traceSuiteCold},
	{"cg-lap3d", runCG, traceCG},
	{"serve-open", runServe, traceServe},
}

// env carries one run's parameters, its scratch directory and what it
// has measured so far.
type env struct {
	workload string
	seed     int64
	seconds  float64
	cgTol    float64
	scratch  string // per-run directory under .bench_build, removed at exit

	res     *result
	host    hostStamp
	spans   *tracer // nil with tracing off
	sample  map[string]summary
	refused int // requests the server refused with ErrServerBusy
}

// deadline is when the measured phase of the run should stop.
func (e *env) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(e.seconds * float64(time.Second)))
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run: suite-cold, cg-lap3d or serve-open")
		seed    = flag.Int64("seed", 1, "seed for vectors, right-hand sides, arrivals, request mix and matrix order")
		seconds = flag.Float64("seconds", 20, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		cgTol   = flag.Float64("cg-tol", 3e-2, "relative-residual tolerance of the cg-lap3d solve")
		workdir = flag.String("workdir", ".bench_build", "directory for scratch files and traces")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (suite-cold, cg-lap3d, serve-open), --seconds > 0 and --trace 0|1\n")
		return 2
	}

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: work directory: %v\n", err)
		return 2
	}
	scratch, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch directory: %v\n", err)
		return 2
	}
	defer os.RemoveAll(scratch)

	e := &env{
		workload: w.name,
		seed:     *seed,
		seconds:  *seconds,
		cgTol:    *cgTol,
		scratch:  scratch,
		res:      newResult(),
		sample:   map[string]summary{},
	}
	e.host = stampHost()
	run := w.run
	if *trace == 1 {
		e.spans = newTracer()
		run = w.traced
	}
	if err := run(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if e.spans != nil {
		path := filepath.Join(*workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := e.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("# spans: %d written to %s\n", e.spans.len(), path)
	}
	e.print()
	if !e.res.Correct || e.res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed\n", w.name, e.res.Failed, e.res.Attempted)
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

// set records a metric.
func (e *env) set(name string, value float64, unit string) {
	e.res.Metrics[name] = metric{Value: value, Unit: unit}
}

// ok counts n attempted operations that succeeded.
func (e *env) ok(n int) { e.res.Attempted += int64(n) }

// fail counts one attempted operation that failed and says why on
// standard error.
func (e *env) fail(format string, args ...any) {
	e.res.Attempted++
	e.res.Failed++
	e.res.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// timing records the distribution behind a timing metric so the report
// shows its median, tail percentile and sample count.
func (e *env) timing(name, unit string, xs []float64) {
	e.sample[name] = summarize(xs, unit)
}

// print writes the host stamp, the timing distributions, and the
// result line last.
func (e *env) print() {
	stamp, _ := json.Marshal(map[string]any{"workload": e.workload, "seed": e.seed, "seconds": e.seconds,
		"trace": e.spans != nil, "host": e.host})
	fmt.Printf("%s\n", stamp)
	names := make([]string, 0, len(e.sample))
	for n := range e.sample {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %s\n", e.sample[n].line(n))
	}
	out, _ := json.Marshal(e.res)
	fmt.Printf("%s\n", out)
}

// Command perfbench is the repository's one performance benchmark. It runs
// one seeded workload through the layers' exported entry points, checks
// every output, and prints each metric by name with its unit; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with -trace 1 a separate traced run reports the
// per-layer ones ("per_layer"). Run it from the repository root through
// run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload dse-cold --seed 1 --seconds 10 --trace 0
//
// NOTES.md explains the workloads, the metrics and the predictions they
// encode.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/device"
)

// procStart approximates process start: package variables initialize
// before main, after the runtime is up.
var procStart = time.Now()

// setups is how many times an untraced run sets its workload up;
// setup_s is the median.
const setups = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options configures one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// maxKernels truncates the draw (0 = the whole draw); the
	// determinism test uses it to keep its runs short.
	maxKernels int
}

// run is the state of one benchmark run: its inputs, its op accounting
// and the metrics it reports.
type run struct {
	options
	p       *device.Platform
	metrics map[string]metric
	// attempted counts ops; failedOps holds the ops with at least one
	// failed output check (keyed by op name, so an op failing two
	// checks counts once).
	attempted int
	failedOps map[string]bool
	failMsgs  []string
	// setupSec holds each set-up's time; redoSetup runs the set-up
	// again (see timeSetup).
	setupSec  []float64
	redoSetup func() error
}

func newRun(o options) *run {
	return &run{options: o, p: device.Virtex7(), metrics: map[string]metric{}, failedOps: map[string]bool{}}
}

// set records one metric.
func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// op counts n attempted ops.
func (r *run) op(n int) { r.attempted += n }

// fail marks op as failed with a diagnostic (the first few are printed
// to standard error).
func (r *run) fail(op, format string, args ...any) {
	r.failedOps[op] = true
	if len(r.failMsgs) < 20 {
		r.failMsgs = append(r.failMsgs, op+": "+fmt.Sprintf(format, args...))
	}
}

// check fails op when ok is false.
func (r *run) check(ok bool, op, format string, args ...any) {
	if !ok {
		r.fail(op, format, args...)
	}
}

// timeSetup runs the workload's set-up and times it from process
// start, so runtime and package initialization count as set-up too.
// An untraced run sets up again after the workload has run (see
// repeatSetup): the passes run in the state of one set-up, as in a
// user's process. undo, when non-nil, releases what a repeated set-up
// holds (a running server).
func (r *run) timeSetup(fn func() error, undo func() error) error {
	if err := fn(); err != nil {
		return err
	}
	r.setupSec = []float64{time.Since(procStart).Seconds()}
	r.redoSetup = func() error {
		t0 := time.Now()
		err := fn()
		r.setupSec = append(r.setupSec, time.Since(t0).Seconds())
		if undo != nil {
			err = errors.Join(err, undo())
		}
		return err
	}
	return nil
}

// repeatSetup sets the workload up until it has done so setups times
// and sets setup_s to the median time.
func (r *run) repeatSetup() error {
	for len(r.setupSec) < setups {
		if err := r.redoSetup(); err != nil {
			return fmt.Errorf("repeated set-up: %w", err)
		}
	}
	r.set("setup_s", "s", median(r.setupSec))
	return nil
}

// more reports whether another pass should start: passes repeat until
// they have taken --seconds, with at least one pass. measured is the
// time the passes so far took, without the output checks between them.
func (r *run) more(measured float64, done int) bool {
	return done == 0 || measured < r.seconds
}

// result assembles the output line with exactly the metrics of the
// run's mode.
func (r *run) result() (result, error) {
	ms, err := selectMetrics(r.metrics, r.trace)
	if err != nil {
		return result{}, err
	}
	return result{
		Correct:   len(r.failedOps) == 0,
		Attempted: r.attempted,
		Failed:    len(r.failedOps),
		Metrics:   ms,
	}, nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"dse-cold":   dseCold,
	"sweep-warm": sweepWarm,
	"serve-mix":  serveMix,
}

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload: dse-cold, sweep-warm or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&traced, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for artifact stores")
	flag.Parse()
	o.trace = traced == 1
	r, err := runWorkload(o)
	if err == nil {
		err = printResult(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process.
func runWorkload(o options) (*run, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	// The golden corpus is read from the repository checkout; without it
	// the bundled kernels' outputs cannot be checked.
	if _, err := os.Stat(goldenDir); err != nil {
		return nil, fmt.Errorf("golden corpus: %w (run from the repository root)", err)
	}
	dir, err := os.MkdirTemp(mkdirAll(o.workdir), o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.workdir = dir

	r := newRun(o)
	err = fn(r)
	if err == nil && !o.trace {
		err = r.repeatSetup()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	return r, nil
}

// printResult prints the metrics for people, then the result line.
func printResult(r *run) error {
	o := r.options
	res, err := r.result()
	if err != nil {
		return err
	}
	for _, m := range r.failMsgs {
		fmt.Fprintln(os.Stderr, "check failed:", m)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%v gomaxprocs=%d attempted=%d failed=%d\n",
		o.workload, o.seed, o.trace, runtime.GOMAXPROCS(0), res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

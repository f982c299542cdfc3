// Command perfbench is the repository's end-to-end benchmark. It drives the
// entry points users call — extrareq.Run the way `reqgen -cache-dir` calls
// it, and reqserve's serve.New(...).Handler() over loopback HTTP the way
// cmd/reqserve wires it — on four seeded workloads, checks every output
// against its oracle, and prints one JSON result line last on stdout.
//
//	bash perfbench/run.sh --workload cold-study --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 the same operations run again with every layer seam
// timed (see seams.go), the result carries the per-layer metrics, and a
// self-time table that reconciles the layers with op wall time goes to
// stderr. See README.md for the workloads and the layer-to-metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the workload seed used when --seed is not given.
const defaultSeed = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// work is a scratch directory inside the checkout, removed at exit.
	work string
	log  io.Writer
}

type workloadFunc func(ctx context.Context, cfg config) (*result, error)

var workloads = map[string]workloadFunc{
	"cold-study":     func(ctx context.Context, cfg config) (*result, error) { return runStudy(ctx, cfg, false) },
	"adaptive-study": func(ctx context.Context, cfg config) (*result, error) { return runStudy(ctx, cfg, true) },
	"serve-disk":     func(ctx context.Context, cfg config) (*result, error) { return runServe(ctx, cfg, false) },
	"serve-remote":   func(ctx context.Context, cfg config) (*result, error) { return runServe(ctx, cfg, true) },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cold-study, adaptive-study, serve-disk or serve-remote")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	oracleOut := fs.String("record-oracle", "", "write the study oracles to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *oracleOut != "" {
		if err := recordOracle(context.Background(), *oracleOut); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		work:    work,
		log:     stderr,
	}
	res, err := wl(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// buildDir is the checkout-local directory for build outputs and scratch
// files; .gitignore names it.
const buildDir = ".bench_build"

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// scratchDir returns a fresh directory under the run's work directory.
func scratchDir(cfg config, prefix string) (string, error) {
	return os.MkdirTemp(cfg.work, prefix)
}

// peakRSSMB is the peak resident memory of this process, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// medianSetup runs setup reps times and returns the last set-up's value
// with the median CPU time of a set-up, in seconds; the earlier set-ups
// are torn down.
func medianSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		start := cpuTime()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, (cpuTime() - start).Seconds())
		if i < reps-1 {
			teardown(v)
			continue
		}
		last = v
	}
	return last, median(secs), nil
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func nsToMs(ns float64) float64 { return ns / 1e6 }

// frac returns num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd builds the end-to-end metrics of an untraced run. p50Ms is the
// median op time of the workload's main class: the CPU time of a campaign
// on the studies, the client-observed wall time of a hit on the serve
// workloads (see README.md for why).
func endToEnd(setupS, p50Ms float64, ops, failed, measured, agree, shapes int) map[string]metric {
	ok := ops - failed
	return map[string]metric{
		"setup_s":                {setupS, "s"},
		"p50_ms":                 {p50Ms, "ms"},
		"success_frac":           {1 - frac(float64(failed), float64(ops)), "frac"},
		"peak_rss_mb":            {peakRSSMB(), "MB"},
		"points_measured_per_op": {frac(float64(measured), float64(ok)), "count"},
		"model_agree_frac":       {frac(float64(agree), float64(shapes)), "frac"},
	}
}

// row is one line of the human-readable summary.
type row struct {
	name  string
	value float64
	unit  string
}

// printTable writes the end-to-end metrics, fail_frac, and the wall-clock
// rows to w.
func printTable(w io.Writer, m map[string]metric, wall []row) {
	rows := []row{
		{"setup_s", m["setup_s"].Value, "s (CPU)"},
		{"p50_ms", m["p50_ms"].Value, "ms"},
		{"fail_frac", 1 - m["success_frac"].Value, "frac"},
		{"peak_rss_mb", m["peak_rss_mb"].Value, "MB"},
		{"points_measured_per_op", m["points_measured_per_op"].Value, "count"},
		{"model_agree_frac", m["model_agree_frac"].Value, "frac"},
	}
	for _, r := range append(rows, wall...) {
		fmt.Fprintf(w, "  %-24s %12.4f %s\n", r.name, r.value, r.unit)
	}
}

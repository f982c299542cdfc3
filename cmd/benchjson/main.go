// Command benchjson converts `go test -bench -benchmem` output on stdin into
// a machine-readable JSON perf-trajectory record on stdout.
//
// The PR gate (scripts/check.sh) pipes the fitting, pipeline, and campaign
// benchmarks through it to produce BENCH_<pr>.json, which is committed with
// the PR and uploaded as a CI artifact, so performance across the repo's
// history can be compared without re-running old revisions.
//
// A benchmark repeated with -count appears once in the record: its ns/op,
// B/op, allocs/op and custom metrics are the medians over the repeats, and
// ns_per_op_min, ns_per_op_max and runs give the spread and the repeat
// count. One run of a benchmark on a shared host drifts too far to compare
// across PRs; a median with its range does not.
//
// Besides the per-benchmark numbers, the tool derives speedup ratios (from
// the medians) for the paired benchmarks the repo uses to pin
// optimizations:
//
//   - <Stem>Optimized vs <Stem>Reference (e.g. the PMNF fitting fast path
//     against the pre-optimization reference path),
//   - <Stem>WarmCache vs <Stem>ColdCache (the campaign cache round trip),
//   - <Stem>Adaptive vs <Stem>FullGrid (adaptive grid refinement against
//     measuring the whole grid; when both sides report a points-measured/op
//     metric the ratio of measured points is derived as well).
//
// Usage: go test -run=NONE -bench=... -benchmem ./... | benchjson -pr 6
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// benchmark is one parsed benchmark result line.
type benchmark struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	// Metrics carries the custom units a benchmark emits via
	// b.ReportMetric (points-measured/op, fits/sec, ...), keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// NsPerOpMin and NsPerOpMax bound ns/op over the Runs result lines
	// folded into this record; the figures above are their medians.
	NsPerOpMin float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax float64 `json:"ns_per_op_max,omitempty"`
	Runs       int     `json:"runs,omitempty"`
}

// derived is a ratio computed from a pair of benchmarks.
type derived struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Fast    string  `json:"fast"`
	Slow    string  `json:"slow"`
	Details string  `json:"details"`
}

type output struct {
	PR         int         `json:"pr"`
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
	Derived    []derived   `json:"derived,omitempty"`
}

// gomaxprocsSuffix strips the -<GOMAXPROCS> suffix `go test` appends to
// benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkFitSingleOptimized-8   853   2928374 ns/op   240639 B/op   1809 allocs/op
//
// Measurements are (value, unit) pairs after the iteration count; custom
// units a benchmark reports via b.ReportMetric (fits/sec, workers, ...)
// land in Metrics, keyed by unit, so they cannot shift the standard ones.
func parseBenchLine(line string) (benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchmark{}, false
	}
	b := benchmark{Name: gomaxprocsSuffix.ReplaceAllString(fields[0], "")}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		case "MB/s":
			b.MBPerS = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[fields[i+1]] = v
		}
	}
	if b.NsPerOp == 0 && b.BytesPerOp == 0 && b.AllocsPerOp == 0 {
		return benchmark{}, false
	}
	return b, true
}

// ratioPairs lists the (fast suffix, slow suffix) naming conventions for
// which a speedup ratio is derived when both benchmarks are present.
var ratioPairs = [][2]string{
	{"Optimized", "Reference"},
	{"WarmCache", "ColdCache"},
	{"Adaptive", "FullGrid"},
}

// pointsMetric is the custom unit the adaptive-vs-full-grid benchmarks
// report; when both sides of a pair carry it, a measured-point reduction
// ratio is derived next to the time speedup.
const pointsMetric = "points-measured/op"

func main() {
	pr := flag.Int("pr", 0, "PR number stamped into the output")
	flag.Parse()

	out := output{PR: *pr, Benchmarks: []benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "goos: "):
			out.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
		case strings.HasPrefix(line, "goarch: "):
			out.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
		default:
			b, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			b.Package = pkg
			out.Benchmarks = append(out.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		os.Exit(1)
	}

	out.Benchmarks = fold(out.Benchmarks)
	out.Derived = deriveRatios(out.Benchmarks)
	sort.Slice(out.Benchmarks, func(i, j int) bool {
		if out.Benchmarks[i].Package != out.Benchmarks[j].Package {
			return out.Benchmarks[i].Package < out.Benchmarks[j].Package
		}
		return out.Benchmarks[i].Name < out.Benchmarks[j].Name
	})

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
}

// fold merges the result lines of one benchmark (same package and name,
// as -count repeats them) into one record of medians, keeping the order in
// which benchmarks first appear.
func fold(lines []benchmark) []benchmark {
	type id struct{ pkg, name string }
	var order []id
	runs := map[id][]benchmark{}
	for _, b := range lines {
		k := id{b.Package, b.Name}
		if _, ok := runs[k]; !ok {
			order = append(order, k)
		}
		runs[k] = append(runs[k], b)
	}
	out := make([]benchmark, 0, len(order))
	for _, k := range order {
		var iters, ns, bytes, allocs, mbs []float64
		units := map[string][]float64{}
		for _, r := range runs[k] {
			iters = append(iters, float64(r.Iterations))
			ns = append(ns, r.NsPerOp)
			bytes = append(bytes, float64(r.BytesPerOp))
			allocs = append(allocs, float64(r.AllocsPerOp))
			mbs = append(mbs, r.MBPerS)
			for unit, v := range r.Metrics {
				units[unit] = append(units[unit], v)
			}
		}
		b := benchmark{
			Package:     k.pkg,
			Name:        k.name,
			Iterations:  int64(math.Round(median(iters))),
			NsPerOp:     median(ns),
			BytesPerOp:  int64(math.Round(median(bytes))),
			AllocsPerOp: int64(math.Round(median(allocs))),
			MBPerS:      median(mbs),
			NsPerOpMin:  slices.Min(ns),
			NsPerOpMax:  slices.Max(ns),
			Runs:        len(ns),
		}
		for unit, vs := range units {
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = median(vs)
		}
		out = append(out, b)
	}
	return out
}

// median returns the middle of vs, or the mean of the two middle values
// when len(vs) is even. It sorts vs in place.
func median(vs []float64) float64 {
	slices.Sort(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// deriveRatios pairs benchmarks by the naming conventions in ratioPairs and
// computes slow/fast ratios for time and allocations.
func deriveRatios(benches []benchmark) []derived {
	byName := map[string]benchmark{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	var out []derived
	for _, b := range benches {
		for _, pair := range ratioPairs {
			fastSuf, slowSuf := pair[0], pair[1]
			if !strings.HasSuffix(b.Name, fastSuf) {
				continue
			}
			stem := strings.TrimSuffix(b.Name, fastSuf)
			slow, ok := byName[stem+slowSuf]
			if !ok || b.NsPerOp == 0 {
				continue
			}
			d := derived{
				Name:  strings.TrimPrefix(stem, "Benchmark") + "_speedup",
				Value: round2(slow.NsPerOp / b.NsPerOp),
				Fast:  b.Name,
				Slow:  slow.Name,
			}
			d.Details = fmt.Sprintf("%.3gms -> %.3gms", slow.NsPerOp/1e6, b.NsPerOp/1e6)
			out = append(out, d)
			if b.AllocsPerOp > 0 && slow.AllocsPerOp > 0 {
				out = append(out, derived{
					Name:    strings.TrimPrefix(stem, "Benchmark") + "_alloc_reduction",
					Value:   round2(float64(slow.AllocsPerOp) / float64(b.AllocsPerOp)),
					Fast:    b.Name,
					Slow:    slow.Name,
					Details: fmt.Sprintf("%d -> %d allocs/op", slow.AllocsPerOp, b.AllocsPerOp),
				})
			}
			if fp, sp := b.Metrics[pointsMetric], slow.Metrics[pointsMetric]; fp > 0 && sp > 0 {
				out = append(out, derived{
					Name:    strings.TrimPrefix(stem, "Benchmark") + "_point_reduction",
					Value:   round2(sp / fp),
					Fast:    b.Name,
					Slow:    slow.Name,
					Details: fmt.Sprintf("%g -> %g points measured", sp, fp),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

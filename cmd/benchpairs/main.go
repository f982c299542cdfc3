// Command benchpairs runs the repository benchmark (perfbench) as
// alternating pairs on two checkouts, a parent and a change, and prints
// each end-to-end metric's medians, quartiles and the change's win count.
//
//	go run ./cmd/benchpairs -parent ../parent -change ../change \
//	    -workload adaptive-study -seeds 31-40 -seconds 10
//
// Pair i runs `bash perfbench/run.sh --workload W --seed S --seconds T
// --trace 0` in both checkouts with the i-th seed, the parent first in
// even pairs and the change first in odd ones, so the host's drift over
// the runs falls on both sides alike. A metric's win count is the
// number of pairs in which the change read better, in the direction
// BENCHMARK.json (read from the change) declares. The stderr rows
// campaign_p50_ms (the studies' wall time per campaign) and models_p50_ms
// (the serve workloads' /models latency) are summarized too where present.
// Every run must end with "correct":true; benchpairs exits 1 otherwise.
//
// Run it on two sibling checkouts, for example two `git archive` exports
// side by side in one scratch directory, not on the repository's own
// working tree against a copy elsewhere: one change tree read 7–15% worse
// cold-study p50_ms from the repository's own checkout than from a copy
// next to the parent's on the same filesystem, and equal once both sat
// side by side.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// endToEnd is one entry of BENCHMARK.json's end_to_end list.
type endToEnd struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// result is the last line perfbench prints.
type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// wallRows are the stderr rows summarized where a workload prints them.
var wallRows = []string{"campaign_p50_ms", "models_p50_ms"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parent := fs.String("parent", "", "checkout of the parent commit")
	change := fs.String("change", "", "checkout of the change, a sibling of -parent")
	workload := fs.String("workload", "", "perfbench workload")
	seedSpec := fs.String("seeds", "1-10", "seeds, one pair each: a range 31-40 or a list 1,2,3")
	seconds := fs.Float64("seconds", 10, "seconds each run measures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seeds, err := parseSeeds(*seedSpec)
	if err != nil || *parent == "" || *change == "" || *workload == "" || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchpairs: want -parent, -change, -workload, -seeds and -seconds > 0")
		return 2
	}
	metrics, err := readEndToEnd(filepath.Join(*change, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "benchpairs:", err)
		return 1
	}
	dirs := [2]string{*parent, *change}
	var values [2]map[string][]float64 // per side, per metric, one value per pair
	for side := range values {
		values[side] = map[string][]float64{}
	}
	incorrect := 0
	for i, seed := range seeds {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, side := range order {
			res, wall, err := runOnce(dirs[side], *workload, seed, *seconds)
			if err != nil {
				fmt.Fprintf(stderr, "benchpairs: %s seed %d: %v\n", dirs[side], seed, err)
				return 1
			}
			if !res.Correct {
				incorrect++
			}
			for name, m := range res.Metrics {
				values[side][name] = append(values[side][name], m.Value)
			}
			for name, v := range wall {
				values[side][name] = append(values[side][name], v)
			}
		}
		fmt.Fprintf(stdout, "pair %d (seed %d): p50_ms parent %.4g change %.4g\n", i+1, seed,
			last(values[0]["p50_ms"]), last(values[1]["p50_ms"]))
	}
	for _, name := range wallRows {
		metrics = append(metrics, endToEnd{Name: name, Unit: "ms", Better: "lower"})
	}
	fmt.Fprintf(stdout, "\n%s, %d pairs, %g s runs; parent %s, change %s\n", *workload, len(seeds), *seconds, *parent, *change)
	fmt.Fprintf(stdout, "%-24s %-30s %-30s %8s %6s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "|Δ median| > parent IQR")
	for _, m := range metrics {
		p, c := values[0][m.Name], values[1][m.Name]
		if len(p) != len(seeds) || len(c) != len(seeds) {
			continue // a stderr row this workload does not print
		}
		wins := 0
		for i := range p {
			if (m.Better == "lower" && c[i] < p[i]) || (m.Better == "higher" && c[i] > p[i]) {
				wins++
			}
		}
		pm, pq1, pq3 := quartiles(p)
		cm, cq1, cq3 := quartiles(c)
		delta := "n/a"
		if pm != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cm-pm)/math.Abs(pm))
		}
		fmt.Fprintf(stdout, "%-24s %-30s %-30s %8s %3d/%-2d %v\n", m.Name,
			fmt.Sprintf("%.4g [%.4g, %.4g] %s", pm, pq1, pq3, m.Unit),
			fmt.Sprintf("%.4g [%.4g, %.4g] %s", cm, cq1, cq3, m.Unit),
			delta, wins, len(seeds), math.Abs(cm-pm) > pq3-pq1)
	}
	if incorrect > 0 {
		fmt.Fprintf(stdout, "\n%d runs did not end \"correct\":true\n", incorrect)
		return 1
	}
	return 0
}

// runOnce runs the benchmark once in dir and returns its result line and
// the wallRows it printed on stderr.
func runOnce(dir, workload string, seed int64, seconds float64) (result, map[string]float64, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return result{}, nil, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, nil, fmt.Errorf("result line: %v", err)
	}
	wall := map[string]float64{}
	sc := bufio.NewScanner(&stderr)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && slices.Contains(wallRows, f[0]) {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				wall[f[0]] = v
			}
		}
	}
	return res, wall, nil
}

// readEndToEnd returns BENCHMARK.json's end-to-end metrics.
func readEndToEnd(path string) ([]endToEnd, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []endToEnd `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return b.EndToEnd, nil
}

// parseSeeds reads "31-40" or "1,2,3".
func parseSeeds(spec string) ([]int64, error) {
	if lo, hi, ok := strings.Cut(spec, "-"); ok {
		a, err1 := strconv.ParseInt(lo, 10, 64)
		b, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q", spec)
		}
		var out []int64
		for s := a; s <= b; s++ {
			out = append(out, s)
		}
		return out, nil
	}
	var out []int64
	for _, f := range strings.Split(spec, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, s)
	}
	return out, nil
}

// quartiles returns the median and the first and third quartiles, each
// linearly interpolated between order statistics.
func quartiles(xs []float64) (median, q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.5), at(0.25), at(0.75)
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[len(xs)-1]
}

// Command locality runs the §II-D matrix-multiplication locality study:
// it traces the naïve (Listing 1) and blocked (Listing 2) kernels over a
// range of matrix sizes, prints the per-instruction-group stack and reuse
// distances, and fits scaling models to the stack distances, demonstrating
// the paper's automatic discovery of whether an implementation is
// locality-preserving.
//
// Usage:
//
//	locality                  # default sweep n = 8..64, b = 4
//	locality -b 8 -ns 16,32,64,128,256
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"extrareq/internal/locality"
	"extrareq/internal/modeling"
	"extrareq/internal/report"
)

func main() {
	var (
		block = flag.Int("b", 4, "block size for the blocked kernel")
		nsRaw = flag.String("ns", "8,12,16,24,32,48,64", "comma-separated matrix sizes")
	)
	flag.Parse()
	ns, err := parseInts(*nsRaw)
	if err != nil {
		fatal(err)
	}

	t := report.NewTable("Stack/reuse distances per instruction group (medians).",
		"n", "kernel", "SD(A)", "RD(A)", "SD(B)", "RD(B)", "SD(C)")
	type series struct{ a, b []modeling.Measurement }
	var naiveS, blockedS series
	for _, n := range ns {
		naive, blocked := locality.MMMStudy(n, min(*block, n))
		addRow(t, n, "naive", naive)
		addRow(t, n, "blocked", blocked)
		naiveS.a = append(naiveS.a, meas(n, median(naive, locality.GroupA)))
		naiveS.b = append(naiveS.b, meas(n, median(naive, locality.GroupB)))
		blockedS.a = append(blockedS.a, meas(n, median(blocked, locality.GroupA)))
		blockedS.b = append(blockedS.b, meas(n, median(blocked, locality.GroupB)))
	}
	fmt.Println(t.String())

	opts := modeling.DefaultOptions()
	opts.MinPoints = min(5, len(ns))
	fitAndPrint := func(name string, ms []modeling.Measurement) {
		info, err := modeling.FitMulti([]string{"n"}, ms, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-22s SD ~ %s\n", name, info.Model)
	}
	fmt.Println("Fitted stack-distance scaling models:")
	fitAndPrint("naive kernel, group A", naiveS.a)
	fitAndPrint("naive kernel, group B", naiveS.b)
	fitAndPrint("blocked kernel, group A", blockedS.a)
	fitAndPrint("blocked kernel, group B", blockedS.b)
	fmt.Println("\nInterpretation: growing models mean pressure on the memory subsystem")
	fmt.Println("will increase with the problem size; constant models mean the kernel is")
	fmt.Println("locality-preserving (§II-D).")
}

func addRow(t *report.Table, n int, kernel string, groups []locality.GroupStats) {
	get := func(name string) locality.GroupStats {
		for _, g := range groups {
			if g.Group == name {
				return g
			}
		}
		return locality.GroupStats{}
	}
	a, b, c := get(locality.GroupA), get(locality.GroupB), get(locality.GroupC)
	cell := func(v float64, samples int64) string {
		if samples == 0 {
			return "-" // never reused (matrix C in the naive kernel)
		}
		return report.Num(v)
	}
	t.AddRow(strconv.Itoa(n), kernel,
		cell(a.MedianStack, a.Samples), cell(a.MedianReuse, a.Samples),
		cell(b.MedianStack, b.Samples), cell(b.MedianReuse, b.Samples),
		cell(c.MedianStack, c.Samples))
}

func median(groups []locality.GroupStats, name string) float64 {
	for _, g := range groups {
		if g.Group == name {
			return g.MedianStack
		}
	}
	return 0
}

func meas(n int, v float64) modeling.Measurement {
	return modeling.Measurement{Coords: []float64{float64(n)}, Values: []float64{v}}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("locality: bad size %q: %w", part, err)
		}
		if v < 2 {
			return nil, fmt.Errorf("locality: matrix size %d too small", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "locality:", err)
	os.Exit(1)
}

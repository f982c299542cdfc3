package main

import (
	"reflect"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	tests := []struct {
		line string
		want benchmark
		ok   bool
	}{
		{
			line: "BenchmarkFitSingleOptimized-8   \t     853\t   2928374 ns/op\t  240639 B/op\t    1809 allocs/op",
			want: benchmark{Name: "BenchmarkFitSingleOptimized", Iterations: 853, NsPerOp: 2928374, BytesPerOp: 240639, AllocsPerOp: 1809},
			ok:   true,
		},
		{
			// Custom b.ReportMetric units between ns/op and B/op must not
			// shift the standard measurements; they land in Metrics.
			line: "BenchmarkFitPipelineSerial   \t       6\t  57837351 ns/op\t       432.2 fits/sec\t         1.000 workers\t 8421533 B/op\t   66528 allocs/op",
			want: benchmark{Name: "BenchmarkFitPipelineSerial", Iterations: 6, NsPerOp: 57837351, BytesPerOp: 8421533, AllocsPerOp: 66528,
				Metrics: map[string]float64{"fits/sec": 432.2, "workers": 1}},
			ok: true,
		},
		{
			line: "BenchmarkAdaptiveVsFullGridAdaptive-8   \t       1\t 191234567 ns/op\t        57.00 points-measured/op\t        68.00 points-saved/op",
			want: benchmark{Name: "BenchmarkAdaptiveVsFullGridAdaptive", Iterations: 1, NsPerOp: 191234567,
				Metrics: map[string]float64{"points-measured/op": 57, "points-saved/op": 68}},
			ok: true,
		},
		{line: "PASS", ok: false},
		{line: "ok  \textrareq/internal/modeling\t11.855s", ok: false},
		{line: "pkg: extrareq/internal/modeling", ok: false},
		{line: "BenchmarkBroken  notanumber  12 ns/op", ok: false},
	}
	for _, tc := range tests {
		got, ok := parseBenchLine(tc.line)
		if ok != tc.ok {
			t.Errorf("parseBenchLine(%q) ok = %v, want %v", tc.line, ok, tc.ok)
			continue
		}
		if ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseBenchLine(%q) = %+v, want %+v", tc.line, got, tc.want)
		}
	}
}

func TestDeriveRatios(t *testing.T) {
	benches := []benchmark{
		{Name: "BenchmarkFitSingleOptimized", NsPerOp: 3e6, AllocsPerOp: 1800},
		{Name: "BenchmarkFitSingleReference", NsPerOp: 15e6, AllocsPerOp: 134000},
		{Name: "BenchmarkMeasureCampaignWarmCache", NsPerOp: 1.5e5},
		{Name: "BenchmarkMeasureCampaignColdCache", NsPerOp: 2.1e6},
		{Name: "BenchmarkAdaptiveVsFullGridAdaptive", NsPerOp: 2e8,
			Metrics: map[string]float64{"points-measured/op": 57}},
		{Name: "BenchmarkAdaptiveVsFullGridFullGrid", NsPerOp: 5e8,
			Metrics: map[string]float64{"points-measured/op": 125}},
		{Name: "BenchmarkUnpaired", NsPerOp: 1},
	}
	got := deriveRatios(benches)
	byName := map[string]derived{}
	for _, d := range got {
		byName[d.Name] = d
	}
	if d, ok := byName["FitSingle_speedup"]; !ok || d.Value != 5 {
		t.Errorf("FitSingle_speedup = %+v, want value 5", d)
	}
	if d, ok := byName["FitSingle_alloc_reduction"]; !ok || d.Value != 74.44 {
		t.Errorf("FitSingle_alloc_reduction = %+v, want value 74.44", d)
	}
	if d, ok := byName["MeasureCampaign_speedup"]; !ok || d.Value != 14 {
		t.Errorf("MeasureCampaign_speedup = %+v, want value 14", d)
	}
	if d, ok := byName["AdaptiveVsFullGrid_speedup"]; !ok || d.Value != 2.5 {
		t.Errorf("AdaptiveVsFullGrid_speedup = %+v, want value 2.5", d)
	}
	if d, ok := byName["AdaptiveVsFullGrid_point_reduction"]; !ok || d.Value != 2.19 {
		t.Errorf("AdaptiveVsFullGrid_point_reduction = %+v, want value 2.19", d)
	}
	if _, ok := byName["Unpaired_speedup"]; ok {
		t.Error("unpaired benchmark must not produce a ratio")
	}
}

// Five -count repeats of one benchmark fold into one record of medians
// with the ns/op range, and ratios derive from the medians.
func TestFoldRepeats(t *testing.T) {
	var lines []benchmark
	for _, ns := range []float64{5e6, 1e6, 3e6, 2e6, 9e6} {
		lines = append(lines,
			benchmark{Package: "p", Name: "BenchmarkXWarmCache", Iterations: int64(ns / 1e6), NsPerOp: ns,
				BytesPerOp: int64(ns / 1e3), AllocsPerOp: 100, Metrics: map[string]float64{"points-reused/op": ns / 1e6}},
			benchmark{Package: "p", Name: "BenchmarkXColdCache", Iterations: 1, NsPerOp: 4 * ns, AllocsPerOp: 400})
	}
	lines = append(lines, benchmark{Package: "q", Name: "BenchmarkXWarmCache", Iterations: 7, NsPerOp: 7})
	got := fold(lines)
	want := []benchmark{
		{Package: "p", Name: "BenchmarkXWarmCache", Iterations: 3, NsPerOp: 3e6, BytesPerOp: 3000, AllocsPerOp: 100,
			Metrics: map[string]float64{"points-reused/op": 3}, NsPerOpMin: 1e6, NsPerOpMax: 9e6, Runs: 5},
		{Package: "p", Name: "BenchmarkXColdCache", Iterations: 1, NsPerOp: 12e6, AllocsPerOp: 400,
			NsPerOpMin: 4e6, NsPerOpMax: 36e6, Runs: 5},
		{Package: "q", Name: "BenchmarkXWarmCache", Iterations: 7, NsPerOp: 7, NsPerOpMin: 7, NsPerOpMax: 7, Runs: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold =\n%+v\nwant\n%+v", got, want)
	}
	speedup := -1.0
	for _, d := range deriveRatios(got[:2]) {
		if d.Name == "X_speedup" {
			speedup = d.Value
		}
	}
	if speedup != 4 {
		t.Errorf("X_speedup = %v, want 4 from the medians", speedup)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
}

package extrap

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"extrareq/internal/modeling"
)

// multiRegionExperiment builds a 3-region × 3-metric experiment over a 5×5
// (p, n) grid with region-dependent growth shapes.
func multiRegionExperiment() *Experiment {
	e := &Experiment{
		Parameters: []string{"p", "n"},
		Data:       map[string]map[string][][]float64{},
	}
	ps := []float64{2, 4, 8, 16, 32}
	ns := []float64{128, 256, 512, 1024, 2048}
	for _, p := range ps {
		for _, n := range ns {
			e.Points = append(e.Points, []float64{p, n})
		}
	}
	shapes := map[string]map[string]func(p, n float64) float64{
		"solver": {
			"flop":  func(p, n float64) float64 { return 100 * n },
			"bytes": func(p, n float64) float64 { return 8 * n * math.Log2(p) },
			"loads": func(p, n float64) float64 { return 300*n + 2*n*p },
		},
		"halo": {
			"flop":  func(p, n float64) float64 { return 5 * math.Sqrt(n) },
			"bytes": func(p, n float64) float64 { return 64 * math.Sqrt(n) },
			"loads": func(p, n float64) float64 { return 12 * n },
		},
		"setup": {
			"flop":  func(p, n float64) float64 { return 42 },
			"bytes": func(p, n float64) float64 { return 8 * p },
			"loads": func(p, n float64) float64 { return 9 * n * math.Log2(n) },
		},
	}
	for region, ms := range shapes {
		e.Data[region] = map[string][][]float64{}
		for metric, f := range ms {
			var series [][]float64
			for _, pt := range e.Points {
				series = append(series, []float64{f(pt[0], pt[1])})
			}
			e.Data[region][metric] = series
		}
	}
	return e
}

// renderFits stringifies fit results for byte comparison.
func renderFits(t *testing.T, fits []SeriesFit) string {
	t.Helper()
	var b strings.Builder
	for _, f := range fits {
		if f.Err != nil {
			t.Fatalf("%s/%s: %v", f.Region, f.Metric, f.Err)
		}
		fmt.Fprintf(&b, "%s/%s = %s (cv=%.17g smape=%.17g r2=%.17g)\n",
			f.Region, f.Metric, f.Info.Model, f.Info.CVScore, f.Info.SMAPE, f.Info.RSquared)
	}
	return b.String()
}

// TestFitExperimentByteIdenticalToSerial is the pipeline determinism
// acceptance test: a multi-region experiment fitted through the parallel
// pipeline must produce byte-identical model output to the serial path,
// for every worker count, with and without the fit cache.
func TestFitExperimentByteIdenticalToSerial(t *testing.T) {
	e := multiRegionExperiment()

	// Serial reference: a plain loop over the same deterministic order,
	// calling the model generator directly.
	var serial []SeriesFit
	for _, region := range e.Regions() {
		for _, metric := range e.Metrics(region) {
			ms, err := e.Measurements(region, metric)
			if err != nil {
				t.Fatal(err)
			}
			info, err := modeling.FitMulti(e.Parameters, ms, nil)
			serial = append(serial, SeriesFit{Region: region, Metric: metric, Info: info, Err: err})
		}
	}
	want := renderFits(t, serial)

	for _, workers := range []int{1, 2, 4, 8, 0} {
		for _, cached := range []bool{false, true} {
			var cache *modeling.FitCache
			if cached {
				cache = modeling.NewFitCache()
			}
			fits, err := FitExperiment(e, nil, workers, cache)
			if err != nil {
				t.Fatal(err)
			}
			got := renderFits(t, fits)
			if got != want {
				t.Errorf("workers=%d cache=%v output differs from serial path:\n--- serial ---\n%s--- parallel ---\n%s",
					workers, cached, want, got)
			}
		}
	}
}

// TestFitExperimentCacheDedupes verifies that repeated fits of the same
// experiment are served from the cache with identical models.
func TestFitExperimentCacheDedupes(t *testing.T) {
	e := multiRegionExperiment()
	cache := modeling.NewFitCache()
	first, err := FitExperiment(e, nil, 4, cache)
	if err != nil {
		t.Fatal(err)
	}
	entries := cache.Len()
	second, err := FitExperiment(e, nil, 4, cache)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != entries {
		t.Errorf("second pass grew the cache from %d to %d entries", entries, cache.Len())
	}
	for i := range first {
		if first[i].Info != second[i].Info {
			t.Errorf("%s/%s: refit despite identical measurements", second[i].Region, second[i].Metric)
		}
	}
}

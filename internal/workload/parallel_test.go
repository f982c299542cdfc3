package workload

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
)

// renderFitResults stringifies fitted campaigns for byte comparison.
func renderFitResults(t *testing.T, fits []*FitResult) string {
	t.Helper()
	var b strings.Builder
	for _, f := range fits {
		for _, m := range metrics.All() {
			info := f.Info[m]
			fmt.Fprintf(&b, "%s/%s = %s (cv=%.17g)\n", f.App.Name, m, info.Model, info.CVScore)
		}
	}
	return b.String()
}

// TestRunParallelMatchesSerial verifies that concurrent campaign
// measurement produces the same samples, in the same p-major/n-minor
// order, as one worker does.
func TestRunParallelMatchesSerial(t *testing.T) {
	run := func(workers int) *Campaign {
		t.Helper()
		r := &ResilientRunner{App: apps.NewKripke(), Workers: workers}
		c, _, err := r.Run(context.Background(), smallGrid)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 8, 0} {
		par := run(workers)
		a, _ := json.Marshal(serial.Samples)
		b, _ := json.Marshal(par.Samples)
		if string(a) != string(b) {
			t.Errorf("workers=%d: samples differ from serial measurement", workers)
		}
	}
}

// TestFitAllParallelWorkerCountIndependent is the table-driven determinism
// test: fitting the same campaigns must render byte-identically for every
// worker count, with and without a shared cache.
func TestFitAllParallelWorkerCountIndependent(t *testing.T) {
	c1, err := measure(apps.NewKripke(), smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := measure(apps.NewLULESH(), smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	campaigns := []*Campaign{c1, c2}

	ref, refErrs, err := FitAllObserved(campaigns, nil, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderFitResults(t, ref)

	cases := []struct {
		name    string
		workers int
		cached  bool
	}{
		{"workers=2", 2, false},
		{"workers=4", 4, false},
		{"workers=8", 8, false},
		{"gomaxprocs", 0, false},
		{"workers=4 cached", 4, true},
		{"gomaxprocs cached", 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cache *modeling.FitCache
			if tc.cached {
				cache = modeling.NewFitCache()
			}
			fits, errs, err := FitAllObserved(campaigns, nil, tc.workers, cache, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderFitResults(t, fits); got != want {
				t.Errorf("output differs from serial fit:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
			}
			if len(errs) != len(refErrs) {
				t.Errorf("error classes: %d, want %d", len(errs), len(refErrs))
			}
		})
	}
}

// TestFitParallelCacheReuse verifies that a shared cache lets a second
// campaign with identical samples reuse the first campaign's fits.
func TestFitParallelCacheReuse(t *testing.T) {
	c, err := measure(apps.NewKripke(), smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	cache := modeling.NewFitCache()
	fit := func() *FitResult {
		t.Helper()
		fits, _, err := FitAllObserved([]*Campaign{c}, nil, 4, cache, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fits[0]
	}
	first := fit()
	entries := cache.Len()
	second := fit()
	if cache.Len() != entries {
		t.Errorf("second fit grew the cache from %d to %d entries", entries, cache.Len())
	}
	if cache.Hits() == 0 {
		t.Error("second fit recorded no cache hits")
	}
	for _, m := range metrics.All() {
		if first.Info[m] != second.Info[m] {
			t.Errorf("%s: refit despite identical campaign", m)
		}
	}
}

package extrareq

// An adaptive Run fits its interim models through the same FitCache as its
// final fit, so the final fit over the last round's points is served from
// the cache. These tests pin that reuse and that it changes nothing: every
// result equals, bit for bit, a cache-less fit of the same campaign.

import (
	"context"
	"errors"
	"math"
	"testing"

	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/workload"
)

// sameFitBits reports the first difference between two fits: winning model
// strings, the float bits of every statistic, relative errors and
// leave-one-out folds. It returns "" when they agree exactly.
func sameFitBits(got, want *Requirements) string {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	eq := func(a, b []uint64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, m := range metrics.All() {
		g, w := got.Info[m], want.Info[m]
		if g == nil || w == nil {
			return m.String() + ": missing model"
		}
		if g.Model.String() != w.Model.String() {
			return m.String() + ": model " + g.Model.String() + ", want " + w.Model.String()
		}
		if !eq(bits([]float64{g.CVScore, g.SMAPE, g.RSquared}), bits([]float64{w.CVScore, w.SMAPE, w.RSquared})) {
			return m.String() + ": CVScore/SMAPE/RSquared bits differ"
		}
		if !eq(bits(g.RelErrors), bits(w.RelErrors)) {
			return m.String() + ": RelErrors differ"
		}
		if len(g.CVFolds) != len(w.CVFolds) {
			return m.String() + ": CVFolds length differs"
		}
		for i := range g.CVFolds {
			gf, wf := g.CVFolds[i], w.CVFolds[i]
			if !eq(bits(gf.Coords), bits(wf.Coords)) || math.Float64bits(gf.Err) != math.Float64bits(wf.Err) {
				return m.String() + ": CVFolds differ"
			}
		}
	}
	return ""
}

// uncachedFit fits c the way Run would without any cache.
func uncachedFit(t *testing.T, c *Campaign, opts *ModelOptions) *Requirements {
	t.Helper()
	fits, _, err := workload.FitAllObserved([]*Campaign{c}, opts, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fits[0]
}

func TestAdaptiveRunFinalFitHitsInterimFits(t *testing.T) {
	reg := NewMetricsRegistry()
	res, err := Run(context.Background(), Spec{App: "Kripke", Grid: fitGrid()},
		WithAdaptiveGrid(AdaptiveOptions{}), WithObservability(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Counter(modeling.MetricFitCacheHits).Value(), int64(len(metrics.All())); got != want {
		t.Errorf("final fit cache hits = %d, want %d (every task of the last round)", got, want)
	}
	if why := sameFitBits(res.Requirements, uncachedFit(t, res.Campaign, nil)); why != "" {
		t.Errorf("cached final fit differs from a cache-less fit: %s", why)
	}
}

func TestRunAllAdaptiveHitsForEveryApp(t *testing.T) {
	prev := defaultGridFor
	defaultGridFor = func(string) Grid { return fitGrid() }
	t.Cleanup(func() { defaultGridFor = prev })

	reg := NewMetricsRegistry()
	results, _, err := RunAll(context.Background(), WithAdaptiveGrid(AdaptiveOptions{}), WithObservability(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	// A task hits at most once, so the total pins a hit on every task of
	// every app.
	if got, want := reg.Counter(modeling.MetricFitCacheHits).Value(), int64(len(results)*len(metrics.All())); got != want {
		t.Errorf("final fit cache hits = %d, want %d", got, want)
	}
	for _, res := range results {
		if why := sameFitBits(res.Requirements, uncachedFit(t, res.Campaign, nil)); why != "" {
			t.Errorf("%s: cached final fit differs from a cache-less fit: %s", res.Campaign.App, why)
		}
	}
}

func TestAdaptiveRunOtherModelOptionsMiss(t *testing.T) {
	mo := modeling.DefaultOptions()
	mo.MaxTerms = 1
	reg := NewMetricsRegistry()
	res, err := Run(context.Background(), Spec{App: "LULESH", Grid: fitGrid()},
		WithAdaptiveGrid(AdaptiveOptions{}), WithModelOptions(mo), WithObservability(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(modeling.MetricFitCacheHits).Value(); got != 0 {
		t.Errorf("final fit with other options hit the interim fits %d times, want 0", got)
	}
	if why := sameFitBits(res.Requirements, uncachedFit(t, res.Campaign, mo)); why != "" {
		t.Errorf("final fit differs from a cache-less fit with the same options: %s", why)
	}
}

func TestAdaptiveRunBelowFivePointRuleKeepsFitError(t *testing.T) {
	grid := Grid{Procs: []int{2, 4, 8}, Ns: []int{64, 128, 256}, Seed: 11}
	res, err := Run(context.Background(), Spec{App: "Relearn", Grid: grid}, WithAdaptiveGrid(AdaptiveOptions{}))
	if !errors.Is(err, modeling.ErrTooFewPoints) {
		t.Fatalf("Run error = %v, want ErrTooFewPoints from the final fit", err)
	}
	_, _, want := workload.FitAllObserved([]*Campaign{res.Campaign}, nil, 0, nil, nil)
	if want == nil || err.Error() != want.Error() {
		t.Errorf("Run error = %q, want the cache-less fit's %v", err, want)
	}
}

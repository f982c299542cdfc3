package modeling

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"extrareq/internal/mathx"
)

// grid builds the measurement grid the paper recommends: 5x5 configurations.
func grid(ps, ns []float64, f func(p, n float64) float64) []Measurement {
	var ms []Measurement
	for _, p := range ps {
		for _, n := range ns {
			ms = append(ms, Measurement{Coords: []float64{p, n}, Values: []float64{f(p, n)}})
		}
	}
	return ms
}

var (
	gridPs = []float64{2, 4, 8, 16, 32}
	gridNs = []float64{64, 128, 256, 512, 1024}
)

func TestFitMultiMultiplicative(t *testing.T) {
	// The paper's example: f(p,n) = log2(p) · n^2 (multiplicative).
	ms := grid(gridPs, gridNs, func(p, n float64) float64 {
		return 10 * math.Log2(p) * n * n
	})
	info, err := FitMulti([]string{"p", "n"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * math.Log2(1<<16) * float64(1<<13) * float64(1<<13)
	got := info.Model.Eval(1<<16, 1<<13)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("extrapolation = %g, want within 5%% of %g (model %s)", got, want, info.Model)
	}
	fp, _ := info.Model.DominantFactor("p")
	fn, _ := info.Model.DominantFactor("n")
	if _, lg := fp.GrowthKey(); lg == 0 {
		t.Errorf("p factor %+v missing log growth (model %s)", fp, info.Model)
	}
	if pe, _ := fn.GrowthKey(); pe != 2 {
		t.Errorf("n factor %+v, want n^2 (model %s)", fn, info.Model)
	}
}

func TestFitMultiAdditive(t *testing.T) {
	// The paper's alternative combination: f(p,n) = log2(p) + n^2.
	ms := grid(gridPs, gridNs, func(p, n float64) float64 {
		return 1e6*math.Log2(p) + 100*n*n
	})
	info, err := FitMulti([]string{"p", "n"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range [][2]float64{{1 << 14, 2048}, {64, 8192}} {
		want := 1e6*math.Log2(probe[0]) + 100*probe[1]*probe[1]
		got := info.Model.Eval(probe[0], probe[1])
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("Eval(%g,%g) = %g, want %g (model %s)", probe[0], probe[1], got, want, info.Model)
		}
	}
	// An additive structure must not be modeled multiplicatively: check that
	// scaling p at fixed huge n barely moves the prediction.
	atSmallP := info.Model.Eval(2, 8192)
	atLargeP := info.Model.Eval(1<<20, 8192)
	if atLargeP > atSmallP*1.5 {
		t.Errorf("additive data modeled with multiplicative p-dependence: %g -> %g (model %s)",
			atSmallP, atLargeP, info.Model)
	}
}

func TestFitMultiOneParameterConstant(t *testing.T) {
	// Kripke-like: requirements depend only on n, not p.
	ms := grid(gridPs, gridNs, func(_, n float64) float64 { return 1e5 * n })
	info, err := FitMulti([]string{"p", "n"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := info.Model.DominantFactor("p"); ok {
		t.Errorf("p should not appear in model %s", info.Model)
	}
	fn, ok := info.Model.DominantFactor("n")
	if !ok || fn.Poly != 1 {
		t.Errorf("n factor = %+v, want n (model %s)", fn, info.Model)
	}
}

func TestFitMultiFullyConstant(t *testing.T) {
	ms := grid(gridPs, gridNs, func(_, _ float64) float64 { return 7 })
	info, err := FitMulti([]string{"p", "n"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Model.IsConstant() {
		t.Errorf("expected constant model, got %s", info.Model)
	}
	if !mathx.AlmostEqual(info.Model.Constant, 7, 1e-9) {
		t.Errorf("constant = %g, want 7", info.Model.Constant)
	}
}

func TestFitMultiHybrid(t *testing.T) {
	// LULESH-like loads/stores: n·log2(n) · log2(p), a product of non-trivial
	// shapes in both parameters.
	ms := grid(gridPs, []float64{256, 512, 1024, 2048, 4096}, func(p, n float64) float64 {
		return 42 * n * math.Log2(n) * math.Log2(p)
	})
	info, err := FitMulti([]string{"p", "n"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	p0, n0 := float64(1<<12), float64(1<<15)
	want := 42 * n0 * math.Log2(n0) * math.Log2(p0)
	got := info.Model.Eval(p0, n0)
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("Eval = %g, want within 10%% of %g (model %s)", got, want, info.Model)
	}
}

func TestFitMultiNoisyGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ms := grid(gridPs, gridNs, func(p, n float64) float64 {
		return 1000 * n * math.Sqrt(p) * (1 + 0.03*rng.NormFloat64())
	})
	info, err := FitMulti([]string{"p", "n"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	p0, n0 := float64(256), float64(4096)
	want := 1000 * n0 * math.Sqrt(p0)
	got := info.Model.Eval(p0, n0)
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("noisy fit Eval = %g, want within 25%% of %g (model %s)", got, want, info.Model)
	}
}

func TestFitMultiErrors(t *testing.T) {
	if _, err := FitMulti(nil, nil, nil); err == nil {
		t.Error("expected error for no parameters")
	}
	ms := grid([]float64{2, 4}, gridNs, func(p, n float64) float64 { return n })
	if _, err := FitMulti([]string{"p", "n"}, ms, nil); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("err = %v, want ErrTooFewPoints", err)
	}
	bad := []Measurement{{Coords: []float64{1}, Values: []float64{2}}}
	if _, err := FitMulti([]string{"p", "n"}, bad, nil); err == nil {
		t.Error("expected arity error")
	}
}

func TestFitMultiSingleParamDelegates(t *testing.T) {
	ms := meas1(gridP, func(x float64) float64 { return 3 * x })
	info, err := FitMulti([]string{"n"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := info.Model.DominantFactor("n")
	if !ok || f.Poly != 1 {
		t.Errorf("dominant = %+v, want n (model %s)", f, info.Model)
	}
}

// A one-parameter series is held to the same MinPoints rule as every axis
// of a multi-parameter grid, whether it is fitted alone or in a batch.
func TestOneParameterFitNeedsMinPoints(t *testing.T) {
	ms := meas1([]float64{2, 4, 8}, func(x float64) float64 { return x * x })
	fits := func(opts *Options) map[string]error {
		_, err := FitMulti([]string{"x"}, ms, opts)
		out := FitAllObserved([]FitTask{{Params: []string{"x"}, Ms: ms, Opts: opts}}, 1, nil, nil)
		return map[string]error{"FitMulti": err, "FitAllObserved": out[0].Err}
	}
	for name, err := range fits(nil) {
		if !errors.Is(err, ErrTooFewPoints) {
			t.Errorf("%s on 3 points: err = %v, want ErrTooFewPoints", name, err)
		}
	}
	opts := DefaultOptions()
	opts.MinPoints = 3
	for name, err := range fits(opts) {
		if err != nil {
			t.Errorf("%s with MinPoints 3: %v", name, err)
		}
	}
}

func TestFitMultiRelErrorsCoverAllPoints(t *testing.T) {
	ms := grid(gridPs, gridNs, func(p, n float64) float64 { return n * p })
	info, err := FitMulti([]string{"p", "n"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.RelErrors) != len(ms) {
		t.Errorf("got %d rel errors, want %d", len(info.RelErrors), len(ms))
	}
}

func TestBaselineLine(t *testing.T) {
	pts := []point{
		{x: []float64{2, 64}, y: 1},
		{x: []float64{4, 64}, y: 2},
		{x: []float64{8, 64}, y: 3},
		{x: []float64{2, 128}, y: 10},
		{x: []float64{4, 128}, y: 20},
	}
	line := baselineLine(pts, 0)
	if len(line) != 3 {
		t.Fatalf("line has %d points, want 3 (the n=64 group)", len(line))
	}
	for i, want := range []float64{1, 2, 3} {
		if line[i].y != want {
			t.Errorf("line[%d].y = %g, want %g", i, line[i].y, want)
		}
	}
	// For param 1 (n), the p=2 group wins the smallest-sum tie-break.
	line = baselineLine(pts, 1)
	if len(line) != 2 || line[0].y != 1 || line[1].y != 10 {
		t.Errorf("n-line = %+v, want the p=2 group", line)
	}
}

package modeling

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"extrareq/internal/mathx"
	"extrareq/internal/pmnf"
)

func meas1(xs []float64, f func(x float64) float64) []Measurement {
	ms := make([]Measurement, len(xs))
	for i, x := range xs {
		ms[i] = Measurement{Coords: []float64{x}, Values: []float64{f(x)}}
	}
	return ms
}

var gridP = []float64{2, 4, 8, 16, 32, 64}

func TestFitSingleConstant(t *testing.T) {
	info, err := FitMulti([]string{"p"}, meas1(gridP, func(float64) float64 { return 42 }), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Model.IsConstant() {
		t.Fatalf("expected constant model, got %s", info.Model)
	}
	if !mathx.AlmostEqual(info.Model.Constant, 42, 1e-9) {
		t.Errorf("constant = %g, want 42", info.Model.Constant)
	}
}

func TestFitSingleLinear(t *testing.T) {
	info, err := FitMulti([]string{"n"}, meas1(gridP, func(x float64) float64 { return 100 * x }), nil)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := info.Model.DominantFactor("n")
	if !ok || f.Poly != 1 || f.Log != 0 {
		t.Fatalf("dominant factor = %+v, want n^1 (model %s)", f, info.Model)
	}
	if got := info.Model.Eval(1024); !mathx.AlmostEqual(got, 102400, 1e-6) {
		t.Errorf("extrapolation Eval(1024) = %g, want 102400", got)
	}
}

func TestFitSingleQuadratic(t *testing.T) {
	info, err := FitMulti([]string{"n"}, meas1(gridP, func(x float64) float64 { return 7 * x * x }), nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := info.Model.DominantFactor("n")
	if f.Poly != 2 || f.Log != 0 {
		t.Fatalf("dominant factor = %+v, want n^2 (model %s)", f, info.Model)
	}
}

func TestFitSingleLogarithmic(t *testing.T) {
	info, err := FitMulti([]string{"p"}, meas1(gridP, func(x float64) float64 { return 50 * math.Log2(x) }), nil)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := info.Model.DominantFactor("p")
	if !ok || f.Poly != 0 || f.Log != 1 {
		t.Fatalf("dominant factor = %+v, want log2(p) (model %s)", f, info.Model)
	}
}

func TestFitSingleNLogN(t *testing.T) {
	info, err := FitMulti([]string{"n"}, meas1(gridP, func(x float64) float64 { return 3 * x * math.Log2(x) }), nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := info.Model.DominantFactor("n")
	if f.Poly != 1 || f.Log != 1 {
		t.Fatalf("dominant factor = %+v, want n·log2(n) (model %s)", f, info.Model)
	}
}

func TestFitSingleSqrt(t *testing.T) {
	// Relearn's memory footprint: 10^6 · n^0.5.
	info, err := FitMulti([]string{"n"}, meas1([]float64{64, 256, 1024, 4096, 16384},
		func(x float64) float64 { return 1e6 * math.Sqrt(x) }), nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := info.Model.DominantFactor("n")
	if f.Poly != 0.5 || f.Log != 0 {
		t.Fatalf("dominant factor = %+v, want n^0.5 (model %s)", f, info.Model)
	}
}

func TestFitSingleTwoTerms(t *testing.T) {
	// y = 1e6 + 1000·x^2: the constant is handled by c0; a second shape
	// appears when data mixes growth, e.g. y = 10·x + 2·x^2.
	info, err := FitMulti([]string{"n"}, meas1([]float64{2, 4, 8, 16, 32, 64, 128, 256},
		func(x float64) float64 { return 1000*x + 2*x*x }), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The dominant behaviour must be x^2 and extrapolation must be accurate.
	f, _ := info.Model.DominantFactor("n")
	if f.Compare(pmnf.Factor{Poly: 2}) < 0 && info.CVScore > 1 {
		t.Fatalf("model %s does not capture quadratic growth (CV %g)", info.Model, info.CVScore)
	}
	want := 1000*4096 + 2*4096*4096.0
	if got := info.Model.Eval(4096); math.Abs(got-want)/want > 0.15 {
		t.Errorf("extrapolation = %g, want within 15%% of %g (model %s)", got, want, info.Model)
	}
}

func TestFitSingleNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ms := meas1([]float64{2, 4, 8, 16, 32, 64},
		func(x float64) float64 { return 500 * x * (1 + 0.02*rng.NormFloat64()) })
	info, err := FitMulti([]string{"n"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := info.Model.DominantFactor("n")
	if !ok {
		t.Fatalf("noisy linear data produced constant model %s", info.Model)
	}
	if f.Poly < 0.75 || f.Poly > 1.25 {
		t.Errorf("dominant poly exponent = %g, want near 1 (model %s)", f.Poly, info.Model)
	}
}

func TestFitSingleNoiseDoesNotInventGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ms := meas1(gridP, func(x float64) float64 { return 1000 * (1 + 0.01*rng.NormFloat64()) })
	info, err := FitMulti([]string{"p"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Prediction far outside the measured range must stay near 1000: pure
	// noise must not be modeled as growth.
	if got := info.Model.Eval(1 << 20); got > 2000 || got < 500 {
		t.Errorf("noise modeled as growth: Eval(2^20) = %g (model %s)", got, info.Model)
	}
}

func TestFitSingleCollectiveTerm(t *testing.T) {
	opts := DefaultOptions()
	opts.Collectives = map[string]bool{"p": true}
	// Bytes of an allreduce: 8192 payload bytes · 2·log2(p).
	info, err := FitMulti([]string{"p"}, meas1(gridP,
		func(p float64) float64 { return 8192 * pmnf.EvalSpecial(pmnf.Allreduce, p) }), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Allreduce(p) and log2(p) are the same shape (factor 2); accept either
	// but require near-perfect extrapolation.
	want := 8192 * pmnf.EvalSpecial(pmnf.Allreduce, 1<<20)
	if got := info.Model.Eval(1 << 20); math.Abs(got-want)/want > 0.01 {
		t.Errorf("Eval(2^20) = %g, want %g (model %s)", got, want, info.Model)
	}
	f, ok := info.Model.DominantFactor("p")
	if !ok {
		t.Fatal("constant model for allreduce data")
	}
	if _, lg := f.GrowthKey(); lg != 1 {
		t.Errorf("dominant factor %+v does not grow logarithmically", f)
	}
}

func TestFitSingleTooFewPoints(t *testing.T) {
	_, err := FitMulti([]string{"p"}, meas1([]float64{2, 4, 8}, func(x float64) float64 { return x }), nil)
	if !errors.Is(err, ErrTooFewPoints) {
		t.Fatalf("err = %v, want ErrTooFewPoints", err)
	}
	opts := DefaultOptions()
	opts.MinPoints = 3
	if _, err := FitMulti([]string{"p"}, meas1([]float64{2, 4, 8}, func(x float64) float64 { return x }), opts); err != nil {
		t.Fatalf("lowered MinPoints should fit: %v", err)
	}
}

func TestFitSingleRejectsWrongArity(t *testing.T) {
	ms := []Measurement{{Coords: []float64{1, 2}, Values: []float64{3}}}
	if _, err := FitMulti([]string{"p"}, ms, nil); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestFitSingleMedianAggregation(t *testing.T) {
	// Repeated observations with one large outlier per point: the median
	// must shield the fit (locality methodology, §II-B).
	var ms []Measurement
	for _, x := range gridP {
		clean := 10 * x
		ms = append(ms, Measurement{
			Coords: []float64{x},
			Values: []float64{clean, clean * 1.01, clean * 0.99, clean * 40},
		})
	}
	out := FitAllObserved([]FitTask{{Params: []string{"n"}, Ms: ms, Agg: AggMedian}}, 1, nil, nil)[0]
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	info := out.Info
	if got := info.Model.Eval(128); math.Abs(got-1280)/1280 > 0.1 {
		t.Errorf("median fit Eval(128) = %g, want ~1280 (model %s)", got, info.Model)
	}
}

func TestFitSingleSkipsEmptyMeasurements(t *testing.T) {
	ms := meas1(gridP, func(x float64) float64 { return x })
	ms = append(ms, Measurement{Coords: []float64{128}})
	if _, err := FitMulti([]string{"n"}, ms, nil); err != nil {
		t.Fatalf("empty measurement should be skipped: %v", err)
	}
}

func TestModelInfoQualityStats(t *testing.T) {
	info, err := FitMulti([]string{"n"}, meas1(gridP, func(x float64) float64 { return 5 * x }), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.SMAPE > 1e-6 {
		t.Errorf("in-sample SMAPE = %g, want ~0", info.SMAPE)
	}
	if info.RSquared < 0.999999 {
		t.Errorf("R^2 = %g, want ~1", info.RSquared)
	}
	if len(info.RelErrors) != len(gridP) {
		t.Errorf("got %d rel errors, want %d", len(info.RelErrors), len(gridP))
	}
	for _, e := range info.RelErrors {
		if e > 1e-9 {
			t.Errorf("rel error %g, want ~0", e)
		}
	}
}

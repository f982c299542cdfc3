package modeling

import (
	"math"
	"math/rand"
	"testing"

	"extrareq/internal/pmnf"
)

// Property: for exact data generated from any single PMNF term (with a
// constant), the generator recovers a model whose extrapolation to 16x the
// measured range is accurate.
func TestSingleTermRecoveryProperty(t *testing.T) {
	polys := pmnf.DefaultPolyExponents()
	logs := pmnf.DefaultLogExponents()
	rng := rand.New(rand.NewSource(11))
	xs := []float64{4, 8, 16, 32, 64, 128}
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		f := pmnf.Factor{
			Poly: polys[rng.Intn(len(polys))],
			Log:  logs[rng.Intn(len(logs))],
		}
		c0 := rng.Float64() * 100
		c1 := rng.Float64()*1000 + 1
		truth := func(x float64) float64 { return c0 + c1*f.Eval(x) }
		var ms []Measurement
		for _, x := range xs {
			ms = append(ms, Measurement{Coords: []float64{x}, Values: []float64{truth(x)}})
		}
		info, err := FitMulti([]string{"x"}, ms, nil)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, f, err)
		}
		probe := 2048.0
		want := truth(probe)
		got := info.Model.Eval(probe)
		if relErr := math.Abs(got-want) / math.Max(want, 1); relErr > 0.10 {
			t.Errorf("trial %d: factor %+v c0=%.1f c1=%.1f: extrapolation off by %.1f%% (model %s)",
				trial, f, c0, c1, 100*relErr, info.Model)
		}
	}
}

// Property: the fitted model is invariant under scaling of the observations
// (fit(k·y) ≈ k·fit(y) pointwise).
func TestFitScaleEquivariance(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32}
	mk := func(scale float64) []Measurement {
		var ms []Measurement
		for _, x := range xs {
			ms = append(ms, Measurement{
				Coords: []float64{x},
				Values: []float64{scale * (5 + 3*x*math.Log2(x))},
			})
		}
		return ms
	}
	base, err := FitMulti([]string{"x"}, mk(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := FitMulti([]string{"x"}, mk(1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{4, 64, 1024} {
		a := base.Model.Eval(x) * 1000
		b := scaled.Model.Eval(x)
		if math.Abs(a-b) > 1e-6*math.Abs(a) {
			t.Errorf("scale equivariance violated at x=%g: %g vs %g", x, a, b)
		}
	}
}

// Property: adding more exact measurements never makes extrapolation worse
// by more than noise (sanity check on the selection machinery).
func TestMorePointsDoNotHurt(t *testing.T) {
	truth := func(x float64) float64 { return 7 * x * x }
	fit := func(xs []float64) float64 {
		var ms []Measurement
		for _, x := range xs {
			ms = append(ms, Measurement{Coords: []float64{x}, Values: []float64{truth(x)}})
		}
		info, err := FitMulti([]string{"x"}, ms, nil)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(info.Model.Eval(512)-truth(512)) / truth(512)
	}
	few := fit([]float64{2, 4, 8, 16, 32})
	many := fit([]float64{2, 4, 8, 16, 32, 64, 128})
	if many > few+0.01 {
		t.Errorf("more points made extrapolation worse: %g -> %g", few, many)
	}
}

// Property: the two-parameter fit of separable exact data evaluates
// correctly on a held-out diagonal.
func TestMultiSeparableHoldout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		cp := rng.Float64()*10 + 1
		cn := rng.Float64()*10 + 1
		truth := func(p, n float64) float64 { return cp * math.Sqrt(p) * cn * n }
		var ms []Measurement
		for _, p := range []float64{4, 8, 16, 32, 64} {
			for _, n := range []float64{32, 64, 128, 256, 512} {
				ms = append(ms, Measurement{Coords: []float64{p, n}, Values: []float64{truth(p, n)}})
			}
		}
		info, err := FitMulti([]string{"p", "n"}, ms, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range [][2]float64{{256, 2048}, {1024, 4096}} {
			want := truth(q[0], q[1])
			got := info.Model.Eval(q[0], q[1])
			if math.Abs(got-want)/want > 0.05 {
				t.Errorf("trial %d: holdout (%g,%g): got %g want %g (model %s)",
					trial, q[0], q[1], got, want, info.Model)
			}
		}
	}
}

func TestOccamSelectPrefersSimpleWithinBand(t *testing.T) {
	simple := scoredHypothesis{
		h:     hypothesis{factors: [][]pmnf.Factor{{{Poly: 1}}}},
		score: 2.0,
	}
	exotic := scoredHypothesis{
		h:     hypothesis{factors: [][]pmnf.Factor{{{Poly: 0.875, Log: 1.5}}}},
		score: 1.95,
	}
	if wi := occamSelect([]scoredHypothesis{exotic, simple}, 0.05); wi != 1 {
		t.Errorf("occamSelect picked %d, want the simple shape", wi)
	}
	// Outside the band, the better score wins regardless of complexity.
	exotic.score = 0.5
	if wi := occamSelect([]scoredHypothesis{exotic, simple}, 0.05); wi != 0 {
		t.Errorf("occamSelect picked %d, want the clearly better fit", wi)
	}
	if occamSelect(nil, 0.05) != -1 {
		t.Error("empty candidate list should return -1")
	}
}

func TestFactorComplexityOrdering(t *testing.T) {
	cases := []struct {
		lo, hi pmnf.Factor
	}{
		{pmnf.Factor{Poly: 1}, pmnf.Factor{Poly: 1.5}},
		{pmnf.Factor{Poly: 1.5}, pmnf.Factor{Poly: 0.875}},
		{pmnf.Factor{Log: 1}, pmnf.Factor{Log: 0.5}},
		{pmnf.Factor{Special: pmnf.Allreduce}, pmnf.Factor{Log: 1}},
		{pmnf.Factor{Poly: 2}, pmnf.Factor{Poly: 2, Log: 1}},
	}
	for _, c := range cases {
		if factorComplexity(c.lo) >= factorComplexity(c.hi) {
			t.Errorf("complexity(%+v)=%g should be < complexity(%+v)=%g",
				c.lo, factorComplexity(c.lo), c.hi, factorComplexity(c.hi))
		}
	}
}

package modeling

import (
	"math"
	"math/rand"
	"testing"
)

func noisyLinear(seed int64, sigma float64) []Measurement {
	rng := rand.New(rand.NewSource(seed))
	var ms []Measurement
	for _, x := range []float64{2, 4, 8, 16, 32, 64, 128} {
		ms = append(ms, Measurement{
			Coords: []float64{x},
			Values: []float64{100 * x * (1 + sigma*rng.NormFloat64())},
		})
	}
	return ms
}

func TestPredictionIntervalCoversTruth(t *testing.T) {
	// Probe at the edge of the measured range: the interval is conditional
	// on the selected shape, so coverage is only guaranteed where shape
	// ambiguity contributes little (see the package comment).
	covered := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		ms := noisyLinear(int64(trial), 0.05)
		info, err := FitMulti([]string{"x"}, ms, nil)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := PredictionInterval(info, ms, []float64{128}, 0.95, 200, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if iv.Lo > iv.Hi {
			t.Fatalf("inverted interval %+v", iv)
		}
		if !iv.Contains(iv.Point) {
			// The point estimate comes from the full search, the interval
			// from shape refits; they can disagree slightly but not wildly.
			if iv.Point < iv.Lo*0.8 || iv.Point > iv.Hi*1.2 {
				t.Errorf("trial %d: point %g far outside [%g, %g]", trial, iv.Point, iv.Lo, iv.Hi)
			}
		}
		if truth := 100.0 * 128; iv.Contains(truth) {
			covered++
		}
	}
	// A 95% interval should cover the truth in the vast majority of trials
	// (allowing slack for the small trial count and extrapolation bias).
	if covered < trials*3/4 {
		t.Errorf("interval covered the truth in only %d/%d trials", covered, trials)
	}
}

func TestPredictionIntervalTightForExactData(t *testing.T) {
	var ms []Measurement
	for _, x := range []float64{2, 4, 8, 16, 32} {
		ms = append(ms, Measurement{Coords: []float64{x}, Values: []float64{7 * x}})
	}
	info, err := FitMulti([]string{"x"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := PredictionInterval(info, ms, []float64{256}, 0.95, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 7.0 * 256
	if iv.Width() > 1e-6*want {
		t.Errorf("exact data produced a wide interval: %+v", iv)
	}
	if math.Abs(iv.Point-want) > 1e-6 {
		t.Errorf("point = %g, want %g", iv.Point, want)
	}
}

func TestPredictionIntervalWidensWithNoise(t *testing.T) {
	width := func(sigma float64) float64 {
		ms := noisyLinear(7, sigma)
		info, err := FitMulti([]string{"x"}, ms, nil)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := PredictionInterval(info, ms, []float64{1024}, 0.9, 200, 7)
		if err != nil {
			t.Fatal(err)
		}
		return iv.Width() / math.Max(iv.Point, 1)
	}
	if w1, w2 := width(0.01), width(0.10); w2 < w1 {
		t.Errorf("interval did not widen with noise: %g -> %g", w1, w2)
	}
}

func TestPredictionIntervalConstantModel(t *testing.T) {
	var ms []Measurement
	rng := rand.New(rand.NewSource(5))
	for _, x := range []float64{2, 4, 8, 16, 32} {
		ms = append(ms, Measurement{Coords: []float64{x}, Values: []float64{50 + rng.NormFloat64()}})
	}
	info, err := FitMulti([]string{"x"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Model.IsConstant() {
		t.Skipf("noise fit non-constant model %s", info.Model)
	}
	iv, err := PredictionInterval(info, ms, []float64{1 << 20}, 0.95, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo < 45 || iv.Hi > 55 {
		t.Errorf("constant interval %+v, want around 50", iv)
	}
}

func TestPredictionIntervalValidation(t *testing.T) {
	ms := noisyLinear(1, 0.01)
	info, err := FitMulti([]string{"x"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PredictionInterval(nil, ms, []float64{10}, 0.95, 10, 1); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := PredictionInterval(info, ms, []float64{10}, 1.5, 10, 1); err == nil {
		t.Error("bad confidence accepted")
	}
	if _, err := PredictionInterval(info, ms, []float64{1, 2}, 0.95, 10, 1); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := PredictionInterval(info, ms[:2], []float64{10}, 0.95, 10, 1); err == nil {
		t.Error("too few points accepted")
	}
}

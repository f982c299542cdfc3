package modeling

import (
	"math"
	"math/rand"
	"testing"
)

// meas2 builds two-parameter measurements over a (p, n) grid.
func meas2(ps, ns []float64, f func(p, n float64) float64) []Measurement {
	var ms []Measurement
	for _, p := range ps {
		for _, n := range ns {
			ms = append(ms, Measurement{Coords: []float64{p, n}, Values: []float64{f(p, n)}})
		}
	}
	return ms
}

// CVFolds carry one per-point leave-one-out record per measurement, with
// the point's own coordinates and a SMAPE-scaled error in [0, 200] — the
// surface the adaptive engine interpolates its uncertainty field from.
func TestCVFoldsShape(t *testing.T) {
	ps := []float64{2, 4, 8, 16, 32}
	ns := []float64{64, 128, 256, 512, 1024}
	ms := meas2(ps, ns, func(p, n float64) float64 { return 3*p*n + 100*n })
	info, err := FitMulti([]string{"p", "n"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(info.CVFolds), len(ms); got != want {
		t.Fatalf("got %d CV folds, want one per measurement (%d)", got, want)
	}
	for i, f := range info.CVFolds {
		if len(f.Coords) != 2 {
			t.Fatalf("fold %d has %d coords, want 2", i, len(f.Coords))
		}
		if f.Coords[0] != ms[i].Coords[0] || f.Coords[1] != ms[i].Coords[1] {
			t.Errorf("fold %d coords %v, want %v", i, f.Coords, ms[i].Coords)
		}
		if math.IsNaN(f.Err) || f.Err < 0 || f.Err > 200 {
			t.Errorf("fold %d error %g outside [0, 200]", i, f.Err)
		}
	}
	// A clean polynomial relation leaves tiny LOO errors everywhere.
	for i, f := range info.CVFolds {
		if f.Err > 1 {
			t.Errorf("fold %d error %g on noise-free data, want ~0", i, f.Err)
		}
	}
}

// Constant series still get per-point folds (leave-one-out of the mean),
// and a single measurement cannot be cross-validated at all.
func TestCVFoldsDegenerate(t *testing.T) {
	opts := DefaultOptions()
	opts.MinPoints = 1
	ms := meas2([]float64{2, 4, 8}, []float64{64, 128}, func(p, n float64) float64 { return 42 })
	info, err := FitMulti([]string{"p", "n"}, ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Model.IsConstant() {
		t.Fatalf("expected constant model, got %s", info.Model)
	}
	if got, want := len(info.CVFolds), len(ms); got != want {
		t.Fatalf("got %d CV folds, want %d", got, want)
	}
	for i, f := range info.CVFolds {
		if f.Err != 0 {
			t.Errorf("fold %d error %g on a constant series, want 0", i, f.Err)
		}
	}

	one := ms[:1]
	info, err = FitMulti([]string{"p", "n"}, one, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range info.CVFolds {
		if f.Err != 0 {
			t.Errorf("single-point fold error %g, want 0", f.Err)
		}
	}
}

// Every CVFolds entry is pinned bit for bit to a per-fold reference refit:
// fold i's error is pointSMAPE of the winner's shape fitted by
// fitHypothesis on every other point and evaluated by Model.Eval at point
// i, or 200 where that refit fails. The adaptive engine picks its next
// configurations from these bits.
func TestCVFoldsMatchReferenceRefits(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	params := []string{"p", "n"}
	compared, failed := 0, 0
	for trial := 0; trial < 60; trial++ {
		ms := randomSeries2(rng)
		info, err := FitMulti(params, ms, nil)
		if err != nil {
			t.Fatalf("series %d: %v", trial, err)
		}
		if info.Model.IsConstant() {
			continue // folds are the mean of the others, not a refit
		}
		pts := aggregate(ms, Measurement.Mean)
		sortPoints(pts)
		h := hypothesis{}
		for _, term := range info.Model.Terms {
			h.factors = append(h.factors, term.Factors)
		}
		for i, pt := range pts {
			train := append(append([]point(nil), pts[:i]...), pts[i+1:]...)
			want := 200.0
			if m, err := fitHypothesis(params, h, train, false); err == nil {
				want = pointSMAPE(m.Eval(pt.x...), pt.y)
			} else {
				failed++
			}
			got := info.CVFolds[i]
			if math.Float64bits(got.Err) != math.Float64bits(want) {
				t.Errorf("series %d (%s) fold %d at %v: Err %v, reference refit %v",
					trial, info.Model, i, pt.x, got.Err, want)
			}
			compared++
		}
	}
	if compared < 1000 {
		t.Fatalf("compared %d folds, want at least 1000", compared)
	}
	t.Logf("%d folds pinned, %d of them failed refits", compared, failed)
}

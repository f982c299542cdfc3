package modeling

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameModelInfo reports whether two fit results are byte-identical: same
// model string, bit-equal constant, term coefficients, and quality stats.
// Returning a description of the first difference keeps failures readable.
func sameModelInfo(a, b *ModelInfo) (string, bool) {
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	if a == nil || b == nil {
		if a == b {
			return "", true
		}
		return fmt.Sprintf("one result nil: %v vs %v", a, b), false
	}
	if a.Model.String() != b.Model.String() {
		return fmt.Sprintf("model %q vs %q", a.Model, b.Model), false
	}
	if bits(a.Model.Constant) != bits(b.Model.Constant) {
		return fmt.Sprintf("constant bits %x vs %x", bits(a.Model.Constant), bits(b.Model.Constant)), false
	}
	if len(a.Model.Terms) != len(b.Model.Terms) {
		return fmt.Sprintf("%d vs %d terms", len(a.Model.Terms), len(b.Model.Terms)), false
	}
	for i := range a.Model.Terms {
		if bits(a.Model.Terms[i].Coeff) != bits(b.Model.Terms[i].Coeff) {
			return fmt.Sprintf("term %d coeff bits %x vs %x", i,
				bits(a.Model.Terms[i].Coeff), bits(b.Model.Terms[i].Coeff)), false
		}
	}
	if bits(a.CVScore) != bits(b.CVScore) {
		return fmt.Sprintf("CVScore %v vs %v", a.CVScore, b.CVScore), false
	}
	if bits(a.SMAPE) != bits(b.SMAPE) {
		return fmt.Sprintf("SMAPE %v vs %v", a.SMAPE, b.SMAPE), false
	}
	if bits(a.RSquared) != bits(b.RSquared) {
		return fmt.Sprintf("RSquared %v vs %v", a.RSquared, b.RSquared), false
	}
	if len(a.RelErrors) != len(b.RelErrors) {
		return fmt.Sprintf("%d vs %d rel errors", len(a.RelErrors), len(b.RelErrors)), false
	}
	for i := range a.RelErrors {
		if bits(a.RelErrors[i]) != bits(b.RelErrors[i]) {
			return fmt.Sprintf("rel error %d: %v vs %v", i, a.RelErrors[i], b.RelErrors[i]), false
		}
	}
	return "", true
}

// randomSeries1 builds a noisy single-parameter series from a random
// one- or two-term PMNF truth. When faulty, a random subset of values is
// sign-flipped, modeling the fault-perturbed counter series that motivate
// AllowNegative.
func randomSeries1(rng *rand.Rand, faulty bool) []Measurement {
	xs := []float64{4, 8, 16, 32, 64, 128}
	polys := []float64{0, 0.5, 1, 1.5, 2}
	logs := []float64{0, 1, 2}
	c0 := rng.Float64() * 100
	c1 := rng.Float64()*1000 + 1
	p1, l1 := polys[rng.Intn(len(polys))], logs[rng.Intn(len(logs))]
	c2 := 0.0
	p2, l2 := 0.0, 0.0
	if rng.Intn(2) == 0 {
		c2 = rng.Float64() * 10
		p2, l2 = polys[rng.Intn(len(polys))], logs[rng.Intn(len(logs))]
	}
	noise := 0.0
	if rng.Intn(2) == 0 {
		noise = 0.05
	}
	var ms []Measurement
	for _, x := range xs {
		y := c0 + c1*math.Pow(x, p1)*math.Pow(math.Log2(x), l1) +
			c2*math.Pow(x, p2)*math.Pow(math.Log2(x), l2)
		y *= 1 + noise*rng.NormFloat64()
		if faulty && rng.Intn(3) == 0 {
			y = -y
		}
		ms = append(ms, Measurement{Coords: []float64{x}, Values: []float64{y}})
	}
	return ms
}

// randomSeries2 builds a noisy two-parameter grid from a random separable
// or product truth.
func randomSeries2(rng *rand.Rand) []Measurement {
	ps := []float64{4, 8, 16, 32, 64}
	ns := []float64{256, 512, 1024, 2048, 4096}
	cp := rng.Float64()*5 + 0.5
	cn := rng.Float64()*5 + 0.5
	pe := []float64{0.5, 1, 2}[rng.Intn(3)]
	ne := []float64{0.5, 1, 1.5}[rng.Intn(3)]
	product := rng.Intn(2) == 0
	noise := 0.0
	if rng.Intn(2) == 0 {
		noise = 0.03
	}
	var ms []Measurement
	for _, p := range ps {
		for _, n := range ns {
			var y float64
			if product {
				y = 10 + cp*math.Pow(p, pe)*math.Pow(n, ne)
			} else {
				y = 10 + cp*math.Pow(p, pe) + cn*math.Pow(n, ne)
			}
			y *= 1 + noise*rng.NormFloat64()
			ms = append(ms, Measurement{Coords: []float64{p, n}, Values: []float64{y}})
		}
	}
	return ms
}

// The optimized fitting path (shared basis columns, incremental
// leave-one-out, pooled QR scratch) must return byte-identical results to
// the reference path (per-fold fitHypothesis refits) — same winning model,
// same coefficients, same scores, bit for bit. scripts/check.sh runs this
// under -race, which also exercises FitAllObserved's worker pool.
func TestOptimizedFitMatchesReference(t *testing.T) {
	refOpts := func(o *Options) *Options {
		r := *o
		r.reference = true
		return &r
	}

	t.Run("single", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 40; trial++ {
			faulty := trial%4 == 3
			ms := randomSeries1(rng, faulty)
			opts := DefaultOptions()
			opts.AllowNegative = faulty
			if trial%5 == 0 {
				opts.Collectives = map[string]bool{"p": true}
			}
			fast, errF := FitMulti([]string{"p"}, ms, opts)
			ref, errR := FitMulti([]string{"p"}, ms, refOpts(opts))
			if (errF == nil) != (errR == nil) {
				t.Fatalf("trial %d: err %v vs %v", trial, errF, errR)
			}
			if errF != nil {
				continue
			}
			if diff, ok := sameModelInfo(fast, ref); !ok {
				t.Errorf("trial %d (faulty=%v): %s", trial, faulty, diff)
			}
		}
	})

	t.Run("multi", func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		for trial := 0; trial < 12; trial++ {
			ms := randomSeries2(rng)
			opts := DefaultOptions()
			if trial%3 == 0 {
				opts.Collectives = map[string]bool{"p": true}
			}
			fast, errF := FitMulti([]string{"p", "n"}, ms, opts)
			ref, errR := FitMulti([]string{"p", "n"}, ms, refOpts(opts))
			if (errF == nil) != (errR == nil) {
				t.Fatalf("trial %d: err %v vs %v", trial, errF, errR)
			}
			if errF != nil {
				continue
			}
			if diff, ok := sameModelInfo(fast, ref); !ok {
				t.Errorf("trial %d: %s", trial, diff)
			}
		}
	})

	t.Run("fitall", func(t *testing.T) {
		rng := rand.New(rand.NewSource(44))
		var fastTasks, refTasks []FitTask
		for i := 0; i < 8; i++ {
			ms := randomSeries2(rng)
			key := fmt.Sprintf("series/%d", i)
			opts := DefaultOptions()
			fastTasks = append(fastTasks, FitTask{Key: key, Params: []string{"p", "n"}, Ms: ms, Opts: opts})
			refTasks = append(refTasks, FitTask{Key: key, Params: []string{"p", "n"}, Ms: ms, Opts: refOpts(opts)})
		}
		fast := FitAllObserved(fastTasks, 4, NewFitCache(), nil)
		ref := FitAllObserved(refTasks, 4, NewFitCache(), nil)
		for i := range fast {
			if (fast[i].Err == nil) != (ref[i].Err == nil) {
				t.Fatalf("task %d: err %v vs %v", i, fast[i].Err, ref[i].Err)
			}
			if fast[i].Err != nil {
				continue
			}
			if diff, ok := sameModelInfo(fast[i].Info, ref[i].Info); !ok {
				t.Errorf("task %d: %s", i, diff)
			}
		}
	})
}

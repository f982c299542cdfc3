package modeling

import (
	"math"
	"math/rand"
	"testing"
)

// The serial fitting benchmarks drive one representative noisy series
// through the full search, on the optimized path (shared basis columns,
// incremental leave-one-out, pooled QR scratch) and on the reference path
// (per-fold fitHypothesis refits). Their ratio is the headline speedup of
// the fitting rework; scripts/check.sh records both in the BENCH_<pr>.json
// perf-trajectory artifact.

func benchSeries1() []Measurement {
	rng := rand.New(rand.NewSource(7))
	xs := []float64{4, 8, 16, 32, 64, 128}
	var ms []Measurement
	for _, x := range xs {
		y := (50 + 12*x*math.Log2(x)) * (1 + 0.03*rng.NormFloat64())
		ms = append(ms, Measurement{Coords: []float64{x}, Values: []float64{y}})
	}
	return ms
}

func benchSeries2() []Measurement {
	rng := rand.New(rand.NewSource(7))
	var ms []Measurement
	for _, p := range []float64{4, 8, 16, 32, 64} {
		for _, n := range []float64{256, 512, 1024, 2048, 4096} {
			y := 1000 * n * math.Sqrt(p) * (1 + 0.03*rng.NormFloat64())
			ms = append(ms, Measurement{Coords: []float64{p, n}, Values: []float64{y}})
		}
	}
	return ms
}

func benchmarkFitSingle(b *testing.B, reference bool) {
	ms := benchSeries1()
	opts := DefaultOptions()
	opts.reference = reference
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitMulti([]string{"x"}, ms, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkFitMulti(b *testing.B, reference bool) {
	ms := benchSeries2()
	opts := DefaultOptions()
	opts.reference = reference
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitMulti([]string{"p", "n"}, ms, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitSingleOptimized(b *testing.B) { benchmarkFitSingle(b, false) }
func BenchmarkFitSingleReference(b *testing.B) { benchmarkFitSingle(b, true) }
func BenchmarkFitMultiOptimized(b *testing.B)  { benchmarkFitMulti(b, false) }
func BenchmarkFitMultiReference(b *testing.B)  { benchmarkFitMulti(b, true) }

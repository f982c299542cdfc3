package extrareq

// The adaptive-campaign headline pair: the Adaptive variant refines each
// proxy's benchGrid with WithAdaptiveGrid while FullGrid measures every
// configuration. Both report the deterministic points-measured/op and
// points-saved/op metrics, from which cmd/benchjson derives the
// AdaptiveVsFullGrid_point_reduction ratio recorded in BENCH_<pr>.json —
// the "2-3x fewer points" claim as a committed number. Each iteration uses
// a fresh in-memory scheduler, so neither variant reuses cached points.

import (
	"context"
	"testing"

	"extrareq/internal/modeling"
)

func benchmarkAdaptiveVsFullGrid(b *testing.B, adaptiveRun bool) {
	b.ReportAllocs()
	var measured, saved int
	for i := 0; i < b.N; i++ {
		for _, name := range PaperAppNames() {
			opts := []Option{WithoutModels()}
			if adaptiveRun {
				opts = append(opts, WithAdaptiveGrid(AdaptiveOptions{}))
			}
			res, err := Run(context.Background(), Spec{App: name, Grid: benchGrid}, opts...)
			if err != nil {
				b.Fatal(err)
			}
			measured += res.PointsMeasured
			saved += res.PointsSaved
		}
	}
	b.ReportMetric(float64(measured)/float64(b.N), "points-measured/op")
	b.ReportMetric(float64(saved)/float64(b.N), "points-saved/op")
}

func BenchmarkAdaptiveVsFullGridAdaptive(b *testing.B) { benchmarkAdaptiveVsFullGrid(b, true) }
func BenchmarkAdaptiveVsFullGridFullGrid(b *testing.B) { benchmarkAdaptiveVsFullGrid(b, false) }

// BenchmarkAdaptiveRun is an adaptive Run with model fitting, the way
// reqgen -adaptive runs it: each iteration refines every proxy's benchGrid
// through a fresh in-memory scheduler and fits the final models, the step
// the pair above skips. fit-cache-hits/op counts the final-fit tasks
// served from the interim fits' cache (5 per proxy when every last-round
// fit is reused).
func BenchmarkAdaptiveRun(b *testing.B) {
	b.ReportAllocs()
	reg := NewMetricsRegistry()
	for i := 0; i < b.N; i++ {
		for _, name := range PaperAppNames() {
			_, err := Run(context.Background(), Spec{App: name, Grid: benchGrid},
				WithRetries(2), WithAdaptiveGrid(AdaptiveOptions{}), WithObservability(reg, nil))
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(reg.Counter(modeling.MetricFitCacheHits).Value())/float64(b.N), "fit-cache-hits/op")
}

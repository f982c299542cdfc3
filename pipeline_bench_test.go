package extrareq

// Serial-vs-parallel throughput of the model-fitting pipeline. On a
// multi-core host (GOMAXPROCS >= 4) the parallel variant is expected to
// deliver > 1.5x the serial fits/sec:
//
//	go test -bench FitPipeline -benchtime 3x .
//
// The comparison is honest because workload.FitAllObserved produces
// byte-identical models for any worker count (see its tests), so both
// variants do exactly the same numerical work.

import (
	"runtime"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/workload"
)

// benchCampaigns measures every proxy app once over the reduced grid; the
// benchmark then times only the fitting stage.
func benchCampaigns(b *testing.B) []*workload.Campaign {
	b.Helper()
	var out []*workload.Campaign
	for _, a := range apps.All() {
		out = append(out, measure(b, a, benchGrid))
	}
	return out
}

func benchmarkFitPipeline(b *testing.B, workers int) {
	campaigns := benchCampaigns(b)
	tasks := len(campaigns) * len(metrics.All())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// No cache: every iteration re-fits every series, so fits/sec
		// reflects raw fitting throughput.
		if _, _, err := workload.FitAllObserved(campaigns, nil, workers, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks*b.N)/b.Elapsed().Seconds(), "fits/sec")
	b.ReportMetric(float64(workersOrMax(workers)), "workers")
}

func workersOrMax(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

func BenchmarkFitPipelineSerial(b *testing.B)   { benchmarkFitPipeline(b, 1) }
func BenchmarkFitPipelineParallel(b *testing.B) { benchmarkFitPipeline(b, 0) }

// BenchmarkFitPipelineCached shows the content-keyed cache short-circuiting
// repeated fits of identical measurement series.
func BenchmarkFitPipelineCached(b *testing.B) {
	campaigns := benchCampaigns(b)
	cache := modeling.NewFitCache()
	if _, _, err := workload.FitAllObserved(campaigns, nil, 0, cache, nil); err != nil {
		b.Fatal(err) // warm the cache outside the timed region
	}
	tasks := len(campaigns) * len(metrics.All())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := workload.FitAllObserved(campaigns, nil, 0, cache, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks*b.N)/b.Elapsed().Seconds(), "fits/sec")
}

// --- Tracing overhead --------------------------------------------------------

// benchmarkMeasureApp times one proxy-app measurement run with an optional
// tracer. Comparing the Off/On pair checks the observability contract:
// with tracing disabled the runtime pays one nil check per event, so
// BenchmarkMeasureTracingOff must match the pre-observability baseline
// (within noise, ±5%); the On variant quantifies the cost of ring-buffer
// event capture.
func benchmarkMeasureApp(b *testing.B, traced bool) {
	app, ok := apps.ByName("MILC")
	if !ok {
		b.Fatal("MILC not registered")
	}
	var tr *Tracer
	if traced {
		tr = NewTracer(0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := apps.Config{Procs: 8, N: 512, Seed: 42, Tracer: tr, TraceTag: "bench"}
		if _, err := app.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	if tr != nil {
		var events int64
		for _, rt := range tr.Runs() {
			for r := 0; r < rt.Size(); r++ {
				events += rt.Ring(r).Emitted()
			}
		}
		b.ReportMetric(float64(events)/float64(b.N), "events/run")
	}
}

func BenchmarkMeasureTracingOff(b *testing.B) { benchmarkMeasureApp(b, false) }
func BenchmarkMeasureTracingOn(b *testing.B)  { benchmarkMeasureApp(b, true) }

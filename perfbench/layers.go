package main

import (
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"extrareq/internal/campaign"
	"extrareq/internal/modeling"
	"extrareq/internal/obs"
)

// probe gathers one traced phase: the spans, the seam counters, the
// registry the program already keeps, scheduler cache statistics, and
// process-level runtime counters.
type probe struct {
	t      *tracer
	reg    *obs.Registry
	store  storeCounts
	runner runnerCounts

	mu    sync.Mutex
	sched campaign.Stats

	reg0 obs.Snapshot
	cpu0 time.Duration
	rt0  []rtmetrics.Sample
}

func newProbe(reg *obs.Registry) *probe {
	return &probe{t: newTracer(), reg: reg}
}

// Runtime counters read at the start and end of a traced phase.
const (
	rtGCCPU   = "/cpu/classes/gc/total:cpu-seconds"
	rtAllCPU  = "/cpu/classes/total:cpu-seconds"
	rtAllocB  = "/gc/heap/allocs:bytes"
	rtAllocOb = "/gc/heap/allocs:objects"
)

func readRuntime() []rtmetrics.Sample {
	s := []rtmetrics.Sample{{Name: rtGCCPU}, {Name: rtAllCPU}, {Name: rtAllocB}, {Name: rtAllocOb}}
	rtmetrics.Read(s)
	return s
}

func rtValue(s rtmetrics.Sample) float64 {
	switch s.Value.Kind() {
	case rtmetrics.KindFloat64:
		return s.Value.Float64()
	case rtmetrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// begin takes the baselines and starts recording spans.
func (p *probe) begin() {
	p.reg0 = p.reg.Snapshot()
	p.cpu0 = cpuTime()
	p.rt0 = readRuntime()
	p.t.enable()
}

// addStats adds scheduler cache statistics observed during the phase.
func (p *probe) addStats(st campaign.Stats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sched.Hits += st.Hits
	p.sched.Misses += st.Misses
	p.sched.PointHits += st.PointHits
	p.sched.PointMisses += st.PointMisses
}

// statsDelta is b - a for the counters addStats uses.
func statsDelta(a, b campaign.Stats) campaign.Stats {
	return campaign.Stats{
		Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses,
		PointHits: b.PointHits - a.PointHits, PointMisses: b.PointMisses - a.PointMisses,
	}
}

// phase is a finished traced phase.
type phase struct {
	attr    attribution
	metrics map[string]metric
}

// finish stops recording and computes the per-layer metrics of ops
// operations. bodyBytes is the summed response body size the clients saw
// (0 outside the serve workloads).
func (p *probe) finish(ops int, bodyBytes int64) phase {
	p.t.disable()
	cpu := cpuTime() - p.cpu0
	rt1 := readRuntime()
	snap := p.reg.Snapshot()
	spans := p.t.snapshot()
	linkFlights(spans)
	a := attribute(spans)

	counter := func(name string) float64 {
		return float64(snap.Counters[name] - p.reg0.Counters[name])
	}
	n := float64(max(ops, 1))
	wall := a.wall
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

	var loadNs, writeNs float64
	subrequests := 0
	type probeKey struct {
		root int32
		note string
	}
	probesByOp := map[probeKey]bool{}
	roots := rootsOf(spans)
	for i, s := range spans {
		switch {
		case s.layer == layerStore && s.note == storeLoad:
			loadNs += float64(s.end - s.start)
		case s.layer == layerStore && s.note == storeWrite:
			writeNs += float64(s.end - s.start)
		case s.layer == layerCampaign && s.note == campaignRun && s.parent != noSpan &&
			spans[s.parent].layer == layerAdaptive:
			subrequests++
		case s.layer == layerLocality:
			probesByOp[probeKey{roots[i], s.note}] = true
		}
	}

	requests := counter(obs.MetricServerRequests)
	set("serve.handler_frac", frac(a.busy[layerServe], wall), "frac")
	set("serve.self_frac", frac(a.self[layerServe], wall), "frac")
	set("serve.coalesce_frac", frac(counter(obs.MetricServerCoalesced), requests), "frac")
	set("serve.shed_frac", frac(counter(obs.MetricServerShed), requests), "frac")
	set("serve.body_bytes", float64(bodyBytes)/n, "bytes")

	st := p.sched
	set("campaign.run_ms", nsToMs(a.busy[layerCampaign])/n, "ms")
	set("campaign.calls", float64(a.count[layerCampaign])/n, "count")
	set("campaign.self_ms", nsToMs(a.self[layerCampaign])/n, "ms")
	set("campaign.entry_hit_frac", frac(float64(st.Hits), float64(st.Hits+st.Misses)), "frac")
	set("campaign.point_hit_frac", frac(float64(st.PointHits), float64(st.PointHits+st.PointMisses)), "frac")

	loads, writes := float64(p.store.loads.Load()), float64(p.store.writes.Load())
	set("store.load_ms", nsToMs(loadNs)/n, "ms")
	set("store.loads", loads/n, "count")
	set("store.load_hit_frac", frac(float64(p.store.loadHits.Load()), loads), "frac")
	set("store.write_ms", nsToMs(writeNs)/n, "ms")
	set("store.writes", writes/n, "count")
	set("store.writes_per_point", frac(writes, float64(p.runner.pointsMeasured.Load())), "count")
	set("store.write_bytes", float64(p.store.writeBytes.Load())/n, "bytes")
	set("store_remote.error_frac", frac(counter(obs.MetricStoreRemoteError), loads+writes), "frac")
	set("store_remote.breaker_opens", counter(obs.MetricStoreRemoteBreakerOpens), "count")

	probes := float64(a.count[layerLocality])
	set("locality.probe_ms", nsToMs(a.busy[layerLocality])/n, "ms")
	set("locality.probes", probes/n, "count")
	set("locality.probes_per_n", frac(probes, float64(len(probesByOp))), "count")

	runs := float64(a.count[layerApps])
	set("apps.run_ms", nsToMs(a.busy[layerApps])/n, "ms")
	set("apps.runs", runs/n, "count")
	set("apps.ms_per_run", frac(nsToMs(a.busy[layerApps]), runs), "ms")

	// The studies call the fit through its entry point, so a span times it;
	// the serve path fits inside the handler, where the registry's per-task
	// fit_seconds histogram is the only clock.
	fitMs := nsToMs(a.busy[layerModeling])
	if a.count[layerModeling] == 0 {
		h0, h1 := p.reg0.Histograms[modeling.MetricFitSeconds], snap.Histograms[modeling.MetricFitSeconds]
		fitMs = (h1.Sum - h0.Sum) * 1e3
	}
	tasks := counter(modeling.MetricFitTasks)
	set("modeling.fit_ms", fitMs/n, "ms")
	set("modeling.fit_tasks", tasks/n, "count")
	set("modeling.fit_cache_hit_frac", frac(counter(modeling.MetricFitCacheHits), tasks), "frac")

	set("adaptive.self_frac", frac(a.self[layerAdaptive], wall), "frac")
	set("adaptive.rounds", counter(obs.MetricAdaptiveRounds)/n, "count")
	set("adaptive.subrequests", float64(subrequests)/n, "count")
	set("adaptive.budget_stop_frac", frac(counter(obs.MetricAdaptiveBudgetStop), float64(a.count[layerAdaptive])), "frac")

	gcCPU := rtValue(rt1[0]) - rtValue(p.rt0[0])
	allCPU := rtValue(rt1[1]) - rtValue(p.rt0[1])
	set("runtime.cpu_ms", ms(cpu)/n, "ms")
	set("runtime.gc_cpu_frac", frac(gcCPU, allCPU), "frac")
	set("runtime.alloc_mb", (rtValue(rt1[2])-rtValue(p.rt0[2]))/(1<<20)/n, "MB")
	set("runtime.allocs", (rtValue(rt1[3])-rtValue(p.rt0[3]))/n, "count")

	set("trace.covered_frac", 1-frac(a.self[layerOther], wall), "frac")
	set("other.self_frac", frac(a.self[layerOther], wall), "frac")
	return phase{attr: a, metrics: m}
}

// printReconciliation writes the self-time table of one traced phase: per
// layer, its exclusive time per op and share of op wall time, its summed
// span time per op and its spans per op. The self column plus "other"
// sums to op wall time.
func printReconciliation(w io.Writer, title string, ph phase) {
	a := ph.attr
	n := float64(max(a.ops, 1))
	fmt.Fprintf(w, "\n%s: self-time reconciliation over %d traced ops (wall %.3f ms/op)\n", title, a.ops, nsToMs(a.wall)/n)
	fmt.Fprintf(w, "  %-10s %12s %8s %12s %10s\n", "layer", "self ms/op", "share", "busy ms/op", "spans/op")
	var sum float64
	for _, l := range reportLayers {
		sum += a.self[l]
		fmt.Fprintf(w, "  %-10s %12.3f %7.1f%% %12.3f %10.2f\n", l,
			nsToMs(a.self[l])/n, 100*frac(a.self[l], a.wall), nsToMs(a.busy[l])/n, float64(a.count[l])/n)
	}
	fmt.Fprintf(w, "  %-10s %12.3f %7.1f%%   (op wall %.3f ms/op; trace.covered_frac %.4f)\n", "sum",
		nsToMs(sum)/n, 100*frac(sum, a.wall), nsToMs(a.wall)/n, ph.metrics["trace.covered_frac"].Value)
}

// printComparison writes the cold-study and adaptive-study phases side by
// side: where adaptive spends the time its smaller point count does not
// save.
func printComparison(w io.Writer, cold, adapt phase) {
	fmt.Fprintf(w, "\ncold-study vs adaptive-study (traced, per op)\n")
	fmt.Fprintf(w, "  %-26s %12s %12s %12s\n", "", "cold", "adaptive", "adaptive-cold")
	row := func(name string, c, a float64) {
		fmt.Fprintf(w, "  %-26s %12.3f %12.3f %+12.3f\n", name, c, a, a-c)
	}
	cn, an := float64(max(cold.attr.ops, 1)), float64(max(adapt.attr.ops, 1))
	row("op wall ms", nsToMs(cold.attr.wall)/cn, nsToMs(adapt.attr.wall)/an)
	for _, l := range reportLayers {
		row(l+" self ms", nsToMs(cold.attr.self[l])/cn, nsToMs(adapt.attr.self[l])/an)
	}
	for _, name := range []string{"apps.runs", "apps.run_ms", "locality.probes", "locality.probe_ms",
		"store.writes", "store.write_ms", "campaign.calls", "modeling.fit_ms", "adaptive.rounds",
		"adaptive.subrequests", "runtime.cpu_ms", "runtime.alloc_mb"} {
		row(name, cold.metrics[name].Value, adapt.metrics[name].Value)
	}
}

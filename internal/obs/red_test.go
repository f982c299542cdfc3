package obs

import "testing"

func TestREDCountsIntoRegistry(t *testing.T) {
	reg := NewRegistry()
	red := NewRED(reg)
	red.Requests.Inc()
	red.Requests.Inc()
	red.Errors.Inc()
	red.Shed.Inc()
	red.Coalesced.Inc()
	red.Coalesced.Inc()
	red.Coalesced.Inc()
	red.PointsGet.Add(4)
	red.PointsPut.Inc()
	red.QueueDepth.Set(5)
	red.Inflight.Set(2)
	red.Latency.Observe(0.25)

	s := reg.Snapshot()
	wantCounters := map[string]int64{
		MetricServerRequests:  2,
		MetricServerErrors:    1,
		MetricServerShed:      1,
		MetricServerCoalesced: 3,
		MetricServerPointsGet: 4,
		MetricServerPointsPut: 1,
	}
	for name, want := range wantCounters {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := s.Gauges[MetricServerQueueDepth]; got != 5 {
		t.Errorf("%s = %v, want 5", MetricServerQueueDepth, got)
	}
	if got := s.Gauges[MetricServerInflight]; got != 2 {
		t.Errorf("%s = %v, want 2", MetricServerInflight, got)
	}
	h, ok := s.Histograms[MetricServerLatency]
	if !ok {
		t.Fatalf("histogram %s missing from snapshot", MetricServerLatency)
	}
	if h.Total != 1 || h.Sum != 0.25 {
		t.Errorf("latency histogram total=%d sum=%v, want 1/0.25", h.Total, h.Sum)
	}
}

// A nil registry means no metrics: every instrument it hands out, and
// every bundle built from it, accepts every update and records nothing.
// Code built without observability shares the same call sites.
func TestNilRegistryInstrumentsAreNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", ExpEdges(1, 2, 3))
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out instruments %p %p %p, want nil", c, g, h)
	}
	c.Add(3)
	c.Inc()
	g.Set(1)
	h.Observe(1)

	red := NewRED(reg)
	for _, c := range []*Counter{red.Requests, red.Errors, red.Shed, red.Coalesced, red.PointsGet, red.PointsPut} {
		c.Inc()
	}
	red.QueueDepth.Set(1)
	red.Inflight.Set(1)
	red.Latency.Observe(1)

	rs := NewRemoteStore(reg)
	for _, c := range []*Counter{rs.Hit, rs.Miss, rs.Error, rs.Dropped, rs.BreakerOpens} {
		c.Inc()
	}
	rs.Seconds.Observe(1)
	rs.BreakerOpen.Set(1)

	ad := NewAdaptive(reg)
	for _, c := range []*Counter{ad.Rounds, ad.PointsMeasured, ad.PointsReused, ad.PointsSaved,
		ad.Converged, ad.BudgetStop, ad.CacheHit} {
		c.Add(2)
		c.Inc()
	}
}

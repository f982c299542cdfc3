package main

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"

	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/simmpi"
	"extrareq/internal/trace"
)

// The wrappers below time each call into a layer through the layer's public
// seam. They change no behaviour: every call goes straight to the wrapped
// value, and a wrapped app keeps its Name, so cache keys do not change.

// timedApp records apps spans around Run (the simulated run, including
// simmpi and counter/profile bookkeeping) and locality spans around
// LocalityProbe, as children of the campaign span that owns the request.
type timedApp struct {
	apps.App
	t      *tracer
	parent int32
}

func (a *timedApp) Run(cfg apps.Config) ([]simmpi.Result, error) {
	id := a.t.begin(layerApps, a.parent)
	defer a.t.end(id)
	return a.App.Run(cfg)
}

func (a *timedApp) LocalityProbe(n int, rec trace.Recorder) {
	id := a.t.beginSpan(span{layer: layerLocality, parent: a.parent,
		note: a.App.Name() + "/" + strconv.Itoa(n)})
	defer a.t.end(id)
	a.App.LocalityProbe(n, rec)
}

// storeCounts accumulates what passes through a timedStore.
type storeCounts struct {
	loads, loadHits, writes, writeBytes atomic.Int64
}

// Notes of store spans, naming the campaign.Store method.
const (
	storeLoad  = "load"
	storeWrite = "write"
	storeSync  = "sync"
)

// timedStore records store spans around the campaign.Store methods.
type timedStore struct {
	inner campaign.Store
	t     *tracer
	c     *storeCounts
}

func (s *timedStore) Load(ctx context.Context, k campaign.Key) ([]byte, bool) {
	id := s.t.beginSpan(span{layer: layerStore, parent: spanOf(ctx), note: storeLoad})
	data, ok := s.inner.Load(ctx, k)
	s.t.end(id)
	s.c.loads.Add(1)
	if ok {
		s.c.loadHits.Add(1)
	}
	return data, ok
}

func (s *timedStore) Store(ctx context.Context, k campaign.Key, data []byte) error {
	id := s.t.beginSpan(span{layer: layerStore, parent: spanOf(ctx), note: storeWrite})
	err := s.inner.Store(ctx, k, data)
	s.t.end(id)
	s.c.writes.Add(1)
	s.c.writeBytes.Add(int64(len(data)))
	return err
}

func (s *timedStore) Sync(ctx context.Context) error {
	id := s.t.beginSpan(span{layer: layerStore, parent: spanOf(ctx), note: storeSync})
	defer s.t.end(id)
	return s.inner.Sync(ctx)
}

// Notes of campaign spans, naming the scheduler method.
const (
	campaignRun    = "run"
	campaignLookup = "lookup"
	campaignPut    = "put"
)

// runnerCounts accumulates what passes through a timedRunner.
type runnerCounts struct {
	pointsMeasured atomic.Int64
}

// timedRunner records campaign spans around the scheduler surface that
// adaptive.Runner and serve.Runner name, and swaps a timedApp into every
// request it runs. It satisfies both interfaces.
type timedRunner struct {
	*campaign.Scheduler
	t *tracer
	c *runnerCounts
}

func (r *timedRunner) Run(ctx context.Context, req campaign.Request) (*campaign.Outcome, error) {
	s := span{layer: layerCampaign, parent: spanOf(ctx), note: campaignRun}
	if s.parent == noSpan {
		// A flight goroutine of the server: keep the key for linkFlights.
		s.key, s.hasKey = campaign.ComputeKey(req), true
	}
	id := r.t.beginSpan(s)
	defer r.t.end(id)
	if ta, ok := req.App.(*timedApp); ok {
		req.App = ta.App
	}
	req.App = &timedApp{App: req.App, t: r.t, parent: id}
	out, err := r.Scheduler.Run(withSpan(ctx, id), req)
	if out != nil {
		r.c.pointsMeasured.Add(int64(out.PointsMeasured))
	}
	return out, err
}

func (r *timedRunner) Lookup(ctx context.Context, k campaign.Key) ([]byte, bool) {
	id := r.t.beginSpan(span{layer: layerCampaign, parent: spanOf(ctx), note: campaignLookup})
	defer r.t.end(id)
	return r.Scheduler.Lookup(withSpan(ctx, id), k)
}

func (r *timedRunner) LookupEntry(ctx context.Context, k campaign.Key) ([]byte, bool) {
	id := r.t.beginSpan(span{layer: layerCampaign, parent: spanOf(ctx), note: campaignLookup})
	defer r.t.end(id)
	return r.Scheduler.LookupEntry(withSpan(ctx, id), k)
}

func (r *timedRunner) PutEntry(ctx context.Context, k campaign.Key, data []byte) error {
	id := r.t.beginSpan(span{layer: layerCampaign, parent: spanOf(ctx), note: campaignPut})
	defer r.t.end(id)
	return r.Scheduler.PutEntry(withSpan(ctx, id), k, data)
}

// opHeader carries the client's op span id to the timed handler.
const opHeader = "X-Perfbench-Op"

// timedHandler records a serve span around the server's http.Handler, as a
// child of the op span named in the request's opHeader.
type timedHandler struct {
	h http.Handler
	t *tracer
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := int32(noSpan)
	if v, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 32); err == nil {
		parent = int32(v)
	}
	id := h.t.begin(layerServe, parent)
	defer h.t.end(id)
	h.h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id)))
}

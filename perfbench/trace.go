package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"extrareq/internal/campaign"
)

// Layer names of the spans the traced run records. layerOp is the root of
// every operation (one reqgen-style campaign or one client request); the
// time no layer span covers is reported as "other".
const (
	layerOp       = "op"
	layerServe    = "serve"
	layerAdaptive = "adaptive"
	layerCampaign = "campaign"
	layerStore    = "store"
	layerLocality = "locality"
	layerApps     = "apps"
	layerModeling = "modeling"
	layerOther    = "other"
)

// reportLayers is the row order of the reconciliation table.
var reportLayers = []string{layerServe, layerAdaptive, layerCampaign, layerStore,
	layerLocality, layerApps, layerModeling, layerOther}

// noSpan is the id of "no span": the parent of a root, or what begin
// returns while the tracer is disabled.
const noSpan = -1

// span is one timed call into a layer through its public seam. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	layer  string
	parent int32
	// key is set on campaign spans (and on op roots that submit a campaign)
	// so that campaign runs the server starts on a flight goroutine, which
	// carries no trace context, can be linked to the request that started
	// them (see linkFlights).
	key    campaign.Key
	hasKey bool
	// note labels locality probes with their app and problem size.
	note       string
	start, end int64
}

// tracer keeps spans in memory until the run ends. It records nothing
// until enable is called, so set-up traffic stays out of the trace.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enable() { t.on.Store(true) }

func (t *tracer) disable() { t.on.Store(false) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent and returns its id (noSpan while the
// tracer is disabled).
func (t *tracer) begin(layer string, parent int32) int32 {
	return t.beginSpan(span{layer: layer, parent: parent})
}

func (t *tracer) beginSpan(s span) int32 {
	if !t.on.Load() {
		return noSpan
	}
	s.start = t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// end closes span id; ending noSpan is a no-op.
func (t *tracer) end(id int32) {
	if id == noSpan {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanCtxKey struct{}

// withSpan returns ctx carrying span id as the parent of the spans the
// callee's seams record.
func withSpan(ctx context.Context, id int32) context.Context {
	if id == noSpan {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, id)
}

// spanOf returns the span ctx carries, or noSpan.
func spanOf(ctx context.Context) int32 {
	if id, ok := ctx.Value(spanCtxKey{}).(int32); ok {
		return id
	}
	return noSpan
}

// linkFlights gives each parentless campaign span a parent: the earliest
// serve span that was open when it began and whose op submitted the same
// campaign key. The server runs a submission on a flight goroutine whose
// context does not derive from the request, so the link is made by key.
// A flight that coalesced several requests belongs to the one that
// started it; the others spend the wait inside their serve span.
func linkFlights(spans []span) {
	serveByKey := map[campaign.Key][]int{}
	for i, s := range spans {
		if s.layer != layerServe || s.parent == noSpan {
			continue
		}
		if op := spans[s.parent]; op.hasKey {
			serveByKey[op.key] = append(serveByKey[op.key], i)
		}
	}
	for i := range spans {
		c := &spans[i]
		if c.layer != layerCampaign || c.parent != noSpan || !c.hasKey {
			continue
		}
		best := int32(noSpan)
		for _, j := range serveByKey[c.key] {
			h := spans[j]
			if h.start <= c.start && c.start <= h.end &&
				(best == noSpan || h.start < spans[best].start) {
				best = int32(j)
			}
		}
		c.parent = best
	}
}

// attribution partitions the wall time of every traced op among the
// layers.
type attribution struct {
	ops  int
	wall float64 // summed op wall time, ns
	// self is each layer's exclusive time: at every instant of an op, the
	// op's open spans that have no open child share the instant equally.
	// For one span that is its duration minus the union of its children's
	// intervals; concurrent children (pool workers, adaptive batches) are
	// handled by the sharing, so self times plus "other" sum to wall.
	self map[string]float64
	// busy is each layer's summed span duration, ns (concurrent spans
	// both count), and count its number of spans.
	busy  map[string]float64
	count map[string]int
}

// attribute computes the attribution of spans. Spans whose root is not an
// op span (nothing should produce them) are ignored.
func attribute(spans []span) attribution {
	a := attribution{
		self:  map[string]float64{},
		busy:  map[string]float64{},
		count: map[string]int{},
	}
	roots := rootsOf(spans)
	groups := map[int32][]int32{}
	for i, r := range roots {
		if spans[r].layer != layerOp {
			continue
		}
		groups[r] = append(groups[r], int32(i))
	}
	for r, members := range groups {
		a.ops++
		a.wall += float64(spans[r].end - spans[r].start)
		for _, i := range members {
			s := spans[i]
			if i == r {
				continue
			}
			a.busy[s.layer] += float64(s.end - s.start)
			a.count[s.layer]++
		}
		sweep(spans, r, members, a.self)
	}
	return a
}

// rootsOf returns the root ancestor of every span. A parent always begins
// before its children, so it precedes them in spans and one forward pass
// suffices.
func rootsOf(spans []span) []int32 {
	roots := make([]int32, len(spans))
	for i, s := range spans {
		roots[i] = int32(i)
		if s.parent != noSpan {
			roots[i] = roots[s.parent]
		}
	}
	return roots
}

// sweep adds the exclusive time of one op's spans to self. Child spans are
// clipped to the op's interval.
func sweep(spans []span, root int32, members []int32, self map[string]float64) {
	type event struct {
		t     int64
		start bool
		i     int32
	}
	lo, hi := spans[root].start, spans[root].end
	evs := make([]event, 0, 2*len(members))
	for _, i := range members {
		s, e := max(spans[i].start, lo), min(spans[i].end, hi)
		if e <= s {
			continue
		}
		evs = append(evs, event{s, true, i}, event{e, false, i})
	}
	// Ends before starts at equal times, so back-to-back spans never
	// overlap.
	sort.Slice(evs, func(x, y int) bool {
		if evs[x].t != evs[y].t {
			return evs[x].t < evs[y].t
		}
		return !evs[x].start && evs[y].start
	})
	openChildren := map[int32]int{}
	var open []int32
	prev := lo
	for _, ev := range evs {
		if dt := ev.t - prev; dt > 0 {
			var leaves []int32
			for _, i := range open {
				if openChildren[i] == 0 {
					leaves = append(leaves, i)
				}
			}
			for _, i := range leaves {
				self[reportName(spans[i].layer)] += float64(dt) / float64(len(leaves))
			}
		}
		prev = ev.t
		p := spans[ev.i].parent
		if ev.start {
			open = append(open, ev.i)
			if ev.i != root {
				openChildren[p]++
			}
			continue
		}
		for k, i := range open {
			if i == ev.i {
				open = append(open[:k], open[k+1:]...)
				break
			}
		}
		if ev.i != root {
			openChildren[p]--
		}
	}
}

// reportName maps the op root onto the "other" row.
func reportName(layer string) string {
	if layer == layerOp {
		return layerOther
	}
	return layer
}

package main

import (
	"math"
	"net/http"
	"reflect"
	"testing"

	"extrareq/internal/campaign"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no values should be NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
}

// TestQuartiles pins values computed with Python's
// statistics.quantiles(xs, n=4), the method the spread check uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// spans builds a trace from (layer, parent, start, end) rows.
func spans(rows ...span) []span { return rows }

func TestAttributeOverlappingChildren(t *testing.T) {
	// One op [0, 100) with a campaign span [10, 90) whose two apps children
	// run concurrently on pool workers: [20, 60) and [40, 80). The
	// campaign's self time is its span minus the union of the children:
	// 80 - 60 = 20. The children overlap on [40, 60), which they share.
	tr := spans(
		span{layer: layerOp, parent: noSpan, start: 0, end: 100},
		span{layer: layerCampaign, parent: 0, start: 10, end: 90},
		span{layer: layerApps, parent: 1, start: 20, end: 60},
		span{layer: layerApps, parent: 1, start: 40, end: 80},
	)
	a := attribute(tr)
	want := map[string]float64{layerOther: 20, layerCampaign: 20, layerApps: 60}
	for l, v := range want {
		if !near(a.self[l], v) {
			t.Errorf("self[%s] = %v, want %v", l, a.self[l], v)
		}
	}
	var sum float64
	for _, v := range a.self {
		sum += v
	}
	if !near(sum, a.wall) || a.wall != 100 || a.ops != 1 {
		t.Errorf("self times sum to %v over %d ops, want wall %v", sum, a.ops, a.wall)
	}
	if a.busy[layerApps] != 80 || a.count[layerApps] != 2 {
		t.Errorf("apps busy %v over %d spans, want 80 over 2", a.busy[layerApps], a.count[layerApps])
	}
}

func TestAttributeConcurrentLayersAndOps(t *testing.T) {
	// Two ops overlap in time; each is attributed on its own. In op 0 an
	// adaptive span runs two campaign sub-requests at once, one of which
	// has a store child that outlives the op and is clipped.
	tr := spans(
		span{layer: layerOp, parent: noSpan, start: 0, end: 100},   // 0
		span{layer: layerAdaptive, parent: 0, start: 0, end: 100},  // 1
		span{layer: layerCampaign, parent: 1, start: 10, end: 50},  // 2
		span{layer: layerCampaign, parent: 1, start: 30, end: 70},  // 3
		span{layer: layerStore, parent: 3, start: 60, end: 120},    // 4
		span{layer: layerOp, parent: noSpan, start: 50, end: 150},  // 5
		span{layer: layerModeling, parent: 5, start: 50, end: 150}, // 6
	)
	a := attribute(tr)
	// Op 0: the adaptive span is the only leaf on [0,10); campaign 2 on
	// [10,30); campaigns 2 and 3 share [30,50); campaign 3 alone on
	// [50,60); its store child on [60,70). Campaign 3 ends at 70 while its
	// store child runs on, so the adaptive span and the store span share
	// [70,100). Op 5 is all modeling.
	want := map[string]float64{
		layerAdaptive: 10 + 15,
		layerCampaign: 20 + 20 + 10,
		layerStore:    10 + 15,
		layerModeling: 100,
		layerOther:    0,
	}
	for l, v := range want {
		if !near(a.self[l], v) {
			t.Errorf("self[%s] = %v, want %v", l, a.self[l], v)
		}
	}
	if a.ops != 2 || a.wall != 200 {
		t.Errorf("ops %d wall %v, want 2 and 200", a.ops, a.wall)
	}
	var sum float64
	for _, v := range a.self {
		sum += v
	}
	if !near(sum, a.wall) {
		t.Errorf("self times sum to %v, want %v", sum, a.wall)
	}
}

func TestLinkFlights(t *testing.T) {
	k1, k2 := campaign.Key{1}, campaign.Key{2}
	tr := spans(
		span{layer: layerOp, parent: noSpan, key: k1, hasKey: true, start: 0, end: 100},       // 0
		span{layer: layerServe, parent: 0, start: 5, end: 95},                                 // 1
		span{layer: layerOp, parent: noSpan, key: k1, hasKey: true, start: 10, end: 100},      // 2: coalesces
		span{layer: layerServe, parent: 2, start: 12, end: 95},                                // 3
		span{layer: layerCampaign, parent: noSpan, key: k1, hasKey: true, start: 20, end: 90}, // 4
		span{layer: layerCampaign, parent: noSpan, key: k2, hasKey: true, start: 20, end: 90}, // 5: no request
	)
	linkFlights(tr)
	if tr[4].parent != 1 {
		t.Errorf("flight linked to span %d, want the serve span of the op that started it (1)", tr[4].parent)
	}
	if tr[5].parent != noSpan {
		t.Errorf("unmatched flight linked to %d", tr[5].parent)
	}
}

func TestStudyOrderDeterministic(t *testing.T) {
	a, b, c := studyOrder(7, 50), studyOrder(7, 50), studyOrder(8, 50)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different app sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same app sequence")
	}
	counts := map[string]int{}
	for _, app := range a {
		counts[app]++
	}
	for app, n := range counts {
		if n != 50 {
			t.Errorf("%s runs %d times in 50 rounds, want 50", app, n)
		}
	}
}

func TestServeLoadDeterministic(t *testing.T) {
	s1, o1 := serveLoad(3, 5000)
	s2, o2 := serveLoad(3, 5000)
	s3, o3 := serveLoad(4, 5000)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(o1, o2) {
		t.Error("same seed gave different request sequences")
	}
	if reflect.DeepEqual(o1, o3) || reflect.DeepEqual(s1, s3) {
		t.Error("different seeds gave the same request sequence")
	}
	if len(s1) != hotSpecs {
		t.Fatalf("%d hot specs, want %d", len(s1), hotSpecs)
	}
	var kinds [3]int
	used := map[[2]int]bool{} // (spec app index, n) of write columns
	for _, op := range o1 {
		kinds[op.kind]++
		if op.kind != opWrite {
			continue
		}
		spec := s1[op.spec]
		for _, n := range spec.Grid.Ns {
			if n == op.n {
				t.Fatalf("write reuses hot n %d", n)
			}
		}
		k := [2]int{op.spec % 5, op.n}
		if used[k] {
			t.Fatalf("write n %d drawn twice for one app", op.n)
		}
		used[k] = true
	}
	if kinds[opHit] < 3300 || kinds[opModels] < 850 || kinds[opWrite] < 400 {
		t.Errorf("mix hit/models/write = %v, want about 70/20/10%%", kinds)
	}
}

func TestServeCheckerFlagsCorruption(t *testing.T) {
	spec := &hotSpec{key: "k", hitBody: []byte(`{"key":"k","cache_hit":true}`)}
	c := newServeChecker()
	if why, _ := c.check(opHit, spec, http.StatusOK, []byte(`{"key":"k","cache_hit":true}`)); why != "" {
		t.Fatalf("intact hit flagged: %s", why)
	}
	if why, _ := c.check(opHit, spec, http.StatusOK, []byte(`{"key":"k","cache_hit":tru3}`)); why == "" {
		t.Error("corrupted hit body passed")
	}
	if why, _ := c.check(opHit, spec, http.StatusServiceUnavailable, spec.hitBody); why == "" {
		t.Error("shed request passed")
	}
	models := []byte(`{"models":{"flop":{"model":"2·n"}}}`)
	if why, _ := c.check(opModels, spec, http.StatusOK, models); why != "" {
		t.Fatalf("first models answer flagged: %s", why)
	}
	if why, _ := c.check(opModels, spec, http.StatusOK, []byte(`{"models":{"flop":{"model":"3·n"}}}`)); why == "" {
		t.Error("changed model string passed")
	}
	if c.agree != 1 || c.total != 2 {
		t.Errorf("agreement %d/%d, want 1/2", c.agree, c.total)
	}
	write := []byte(`{"cache_hit":false,"points_reused":6,"points_measured":3,"campaign":{"samples":[{},{},{},{},{},{},{},{},{}]}}`)
	if why, measured := c.check(opWrite, spec, http.StatusOK, write); why != "" || measured != 3 {
		t.Errorf("good write: %q, measured %d", why, measured)
	}
	if why, _ := c.check(opWrite, spec, http.StatusOK, []byte(`{"cache_hit":true,"points_reused":9}`)); why == "" {
		t.Error("write served from cache passed")
	}
}

func TestStudyCheckerFlagsChangedModel(t *testing.T) {
	models := map[string]string{"bytes_used": "2·n", "flop": "n", "bytes_sent_recv": "n",
		"loads_stores": "n", "stack_distance": "1"}
	shapes := map[string]string{"bytes_used": "c·n", "flop": "c·n", "bytes_sent_recv": "c·n",
		"loads_stores": "c·n", "stack_distance": ""}
	ok := studyOutcome{app: "Kripke", models: models, shapes: shapes}
	oracle := &studyOracle{Cold: map[string]map[string]string{"Kripke": models}}
	c := &studyChecker{oracle: oracle, ref: map[string]studyOutcome{"Kripke": ok}, first: map[string]studyOutcome{}}
	if why := c.check(ok); why != "" {
		t.Fatalf("matching outcome flagged: %s", why)
	}
	changed := map[string]string{}
	for k, v := range models {
		changed[k] = v
	}
	changed["flop"] = "3·n"
	if why := c.check(studyOutcome{app: "Kripke", models: changed, shapes: shapes}); why == "" {
		t.Error("changed model string passed")
	}
	// Without an oracle (another seed), a repeat that differs from the
	// first run of the same spec is still caught.
	c = &studyChecker{adaptive: true, ref: map[string]studyOutcome{}, first: map[string]studyOutcome{}}
	if why := c.check(ok); why != "" {
		t.Fatalf("first outcome flagged: %s", why)
	}
	if why := c.check(studyOutcome{app: "Kripke", models: changed, shapes: shapes}); why == "" {
		t.Error("differing repeat passed")
	}
}

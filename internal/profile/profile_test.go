package profile

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func TestEnterExitAndMetrics(t *testing.T) {
	p := New()
	p.Enter("solver")
	p.AddMetric("flop", 100)
	p.Enter("allreduce")
	p.AddMetric("bytes", 64)
	p.Exit("allreduce")
	p.Exit("solver")
	p.AddMetric("flop", 1)

	if got := p.MetricTotal("flop"); got != 101 {
		t.Errorf("flop total = %g, want 101", got)
	}
	if got := p.PathMetric("main/solver/allreduce", "bytes"); got != 64 {
		t.Errorf("path bytes = %g, want 64", got)
	}
	if got := p.PathMetric("main/solver", "flop"); got != 100 {
		t.Errorf("solver flop = %g, want 100", got)
	}
	if got := p.PathMetric("main/bogus", "flop"); got != 0 {
		t.Errorf("missing path = %g, want 0", got)
	}
	if got := p.PathMetric("wrong-root", "flop"); got != 0 {
		t.Errorf("wrong root = %g, want 0", got)
	}
}

func TestExitMismatchPanics(t *testing.T) {
	p := New()
	p.Enter("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched Exit")
		}
	}()
	p.Exit("b")
}

func TestExitRootPanics(t *testing.T) {
	p := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Exit at root")
		}
	}()
	p.Exit("main")
}

func TestInRegion(t *testing.T) {
	p := New()
	p.InRegion("kernel", func() {
		p.AddMetric("flop", 5)
		if p.Depth() != 1 {
			t.Errorf("depth inside region = %d, want 1", p.Depth())
		}
	})
	if p.Depth() != 0 {
		t.Errorf("depth after region = %d, want 0", p.Depth())
	}
	if got := p.PathMetric("main/kernel", "flop"); got != 5 {
		t.Errorf("kernel flop = %g, want 5", got)
	}
}

func TestVisitsCount(t *testing.T) {
	p := New()
	for i := 0; i < 3; i++ {
		p.InRegion("iter", func() {})
	}
	flat := p.Flatten()
	var found bool
	for _, pm := range flat {
		if pm.Path == "main/iter" {
			found = true
			if pm.Visits != 3 {
				t.Errorf("visits = %d, want 3", pm.Visits)
			}
		}
	}
	if !found {
		t.Fatal("main/iter not in flattened profile")
	}
}

func TestFlattenSorted(t *testing.T) {
	p := New()
	p.InRegion("z", func() {})
	p.InRegion("a", func() {})
	flat := p.Flatten()
	for i := 1; i < len(flat); i++ {
		if flat[i].Path < flat[i-1].Path {
			t.Fatalf("paths not sorted: %q after %q", flat[i].Path, flat[i-1].Path)
		}
	}
}

func TestMergeProfiles(t *testing.T) {
	a := New()
	a.InRegion("solve", func() { a.AddMetric("bytes", 10) })
	b := New()
	b.InRegion("solve", func() { b.AddMetric("bytes", 20) })
	b.InRegion("io", func() { b.AddMetric("bytes", 1) })
	a.Merge(b)
	if got := a.PathMetric("main/solve", "bytes"); got != 30 {
		t.Errorf("merged solve bytes = %g, want 30", got)
	}
	if got := a.PathMetric("main/io", "bytes"); got != 1 {
		t.Errorf("merged io bytes = %g, want 1", got)
	}
	if a.Root().Visits != 2 {
		t.Errorf("merged root visits = %d, want 2 (processes)", a.Root().Visits)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := New()
	p.InRegion("solve", func() {
		p.AddMetric("flop", 42)
		p.InRegion("inner", func() { p.AddMetric("flop", 1) })
	})
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Profiler
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.PathMetric("main/solve/inner", "flop"); got != 1 {
		t.Errorf("restored inner flop = %g, want 1", got)
	}
	// The restored profiler must be usable for further recording.
	back.InRegion("solve", func() { back.AddMetric("flop", 8) })
	if got := back.PathMetric("main/solve", "flop"); got != 50 {
		t.Errorf("post-restore solve flop = %g, want 50", got)
	}
}

func TestMetricTotalEmpty(t *testing.T) {
	if got := New().MetricTotal("x"); got != 0 {
		t.Errorf("empty total = %g, want 0", got)
	}
}

// legacyNode is the JSON shape of a call-path node: the fixed-slot storage
// must serialize exactly like a plain metrics map did.
type legacyNode struct {
	Name     string             `json:"name"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Visits   int64              `json:"visits,omitempty"`
	Children []*legacyNode      `json:"children,omitempty"`
}

func sumInOrder(vs ...float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

func TestTypedAndNamedAddsMix(t *testing.T) {
	p := New()
	p.Enter("solve")
	p.Add(Flop, 0.1)
	p.AddMetric("flop", 0.2)
	p.Add(Flop, 0.3)
	p.AddMetric("loads", 7)
	p.Add(Loads, 1e-9)
	p.Exit("solve")
	if got, want := p.PathMetric("main/solve", "flop"), sumInOrder(0.1, 0.2, 0.3); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("flop = %v, want %v (same sum in the same order)", got, want)
	}
	if got, want := p.MetricTotal("loads"), sumInOrder(7, 1e-9); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("loads = %v, want %v", got, want)
	}
	for m := Flop; m < numMetrics; m++ {
		if got, ok := lookupMetric(m.String()); !ok || got != m {
			t.Errorf("lookupMetric(%q) = %v, %v", m.String(), got, ok)
		}
	}
}

func TestZeroAddKeepsKey(t *testing.T) {
	p := New()
	p.InRegion("idle", func() {
		p.Add(BytesSent, 0)
		p.AddMetric("custom", 0)
	})
	for _, pm := range p.Flatten() {
		switch pm.Path {
		case "main":
			if pm.Metrics != nil {
				t.Errorf("root metrics = %v, want none", pm.Metrics)
			}
		case "main/idle":
			want := map[string]float64{"bytes_sent": 0, "custom": 0}
			if !reflect.DeepEqual(pm.Metrics, want) {
				t.Errorf("idle metrics = %v, want %v", pm.Metrics, want)
			}
		}
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"main","visits":1,"children":[{"name":"idle","metrics":{"bytes_sent":0,"custom":0},"visits":1}]}`
	if string(data) != want {
		t.Errorf("JSON\n got %s\nwant %s", data, want)
	}
}

func TestUnknownMetricNames(t *testing.T) {
	p := New()
	p.AddMetric("energy_j", 2.5)
	p.InRegion("io", func() { p.AddMetric("energy_j", 0.5) })
	p.AddMetric("energy_j", 1)
	if got := p.PathMetric("main", "energy_j"); got != 3.5 {
		t.Errorf("root energy = %g, want 3.5", got)
	}
	if got := p.MetricTotal("energy_j"); got != 4 {
		t.Errorf("total energy = %g, want 4", got)
	}
	if got := p.Root().Metric("energy_j"); got != 3.5 {
		t.Errorf("Root().Metric = %g, want 3.5", got)
	}
	if got := p.Root().Metrics(); !reflect.DeepEqual(got, map[string]float64{"energy_j": 3.5}) {
		t.Errorf("Root().Metrics() = %v", got)
	}
	if got := p.MetricTotal("flop"); got != 0 {
		t.Errorf("absent fixed-slot metric total = %g, want 0", got)
	}
}

func TestMergeAndJSONMatchLegacyLayout(t *testing.T) {
	a := New()
	a.InRegion("cg", func() {
		a.Add(Flop, 10)
		a.AddMetric("custom", 1)
		a.InRegion("MPI_Allreduce", func() { a.Add(BytesSent, 16); a.Add(BytesRecv, 16) })
	})
	b := New()
	b.InRegion("halo", func() { b.AddMetric("bytes_sent", 8) })
	b.InRegion("cg", func() {
		b.AddMetric("flop", 0.5)
		b.InRegion("MPI_Allreduce", func() { b.Add(BytesSent, 0) })
	})
	a.Merge(b)

	want := &legacyNode{Name: "main", Visits: 2, Children: []*legacyNode{
		{Name: "cg", Visits: 2, Metrics: map[string]float64{"flop": sumInOrder(10, 0.5), "custom": 1}, Children: []*legacyNode{
			{Name: "MPI_Allreduce", Visits: 2, Metrics: map[string]float64{"bytes_sent": 16, "bytes_recv": 16}},
		}},
		{Name: "halo", Visits: 1, Metrics: map[string]float64{"bytes_sent": 8}},
	}}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantJSON) {
		t.Fatalf("merged JSON\n got %s\nwant %s", got, wantJSON)
	}

	// Round trip: the restored tree re-serializes byte for byte and keeps
	// accumulating into the restored slots and map.
	var back Profiler
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(got) {
		t.Fatalf("round trip\n got %s\nwant %s", again, got)
	}
	back.InRegion("cg", func() {
		back.Add(Flop, 1)
		back.AddMetric("custom", 2)
	})
	if got, want := back.PathMetric("main/cg", "flop"), sumInOrder(10, 0.5, 1); got != want {
		t.Errorf("restored flop = %g, want %g", got, want)
	}
	if got := back.PathMetric("main/cg", "custom"); got != 3 {
		t.Errorf("restored custom = %g, want 3", got)
	}
}

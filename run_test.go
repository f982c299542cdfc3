package extrareq

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/workload"
)

// Run and RunAll must give byte-identical results to the pipeline under
// them, checked here against a bare ResilientRunner and FitAllObserved,
// and against a SHA-256 pin of a campaign from the parallel measurement
// loop that ResilientRunner replaced.

// measure runs a healthy campaign through a bare ResilientRunner: no
// scheduler, no cache.
func measure(tb testing.TB, app apps.App, grid Grid) *Campaign {
	tb.Helper()
	c, _, err := (&ResilientRunner{App: app}).Run(context.Background(), grid)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// fitModels fits one campaign's Table II models through FitAllObserved.
func fitModels(tb testing.TB, c *Campaign) *Requirements {
	tb.Helper()
	fits, _, err := workload.FitAllObserved([]*Campaign{c}, nil, 0, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return fits[0]
}

func smallGrid() Grid {
	return Grid{Procs: []int{2, 4}, Ns: []int{64, 128}, Seed: 11, Repeats: 2}
}

// fitGrid satisfies the five-point rule on both axes while staying far
// below paper scale, for tests that fit models.
func fitGrid() Grid {
	return Grid{Procs: []int{2, 4, 8, 16, 32}, Ns: []int{128, 256, 512, 1024, 2048}, Seed: 11}
}

func asJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func TestRunMatchesLegacyHealthyPipeline(t *testing.T) {
	app, ok := apps.ByName("Kripke")
	if !ok {
		t.Fatal("Kripke not registered")
	}
	grid := fitGrid()
	want := measure(t, app, grid)
	// SHA-256 of this campaign's JSON as the plain parallel measurement
	// loop produced it before ResilientRunner became the only loop.
	const pin = "0cdcb33e4d6805ae02f8ef359917fcac571407e9bc17d45b5f0e74e6554feba9"
	if got := fmt.Sprintf("%x", sha256.Sum256(asJSON(t, want))); got != pin {
		t.Errorf("healthy campaign SHA-256 = %s, want %s", got, pin)
	}

	res, err := Run(context.Background(), Spec{App: "Kripke", Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(asJSON(t, want), asJSON(t, res.Campaign)) {
		t.Error("Run campaign differs from a bare ResilientRunner")
	}
	if res.Report == nil || res.Report.Degraded() {
		t.Errorf("healthy run report = %+v, want non-nil and undegraded", res.Report)
	}
	if res.Requirements == nil {
		t.Fatal("Run did not fit models")
	}
	if !bytes.Equal(asJSON(t, fitModels(t, want)), asJSON(t, res.Requirements)) {
		t.Error("Run requirements differ from FitAllObserved on the bare campaign")
	}
}

func TestRunMatchesLegacyResilientPipeline(t *testing.T) {
	plan, err := ParseFaultSpec("drop=0.02,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	app, ok := apps.ByName("LULESH")
	if !ok {
		t.Fatal("LULESH not registered")
	}
	grid := smallGrid()
	r := &ResilientRunner{App: app, Faults: plan, Retries: 2, MinPoints: 3}
	wantC, wantRep, err := r.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), Spec{App: "LULESH", Grid: grid},
		WithFaults(plan), WithRetries(2), WithMinPoints(3), WithoutModels())
	if err != nil {
		t.Fatal(err)
	}
	if res.Requirements != nil {
		t.Error("WithoutModels still fitted models")
	}
	if !bytes.Equal(asJSON(t, wantC), asJSON(t, res.Campaign)) {
		t.Error("Run campaign differs from the legacy resilient pipeline")
	}
	if !bytes.Equal(asJSON(t, wantRep), asJSON(t, res.Report)) {
		t.Error("Run report differs from the legacy resilient pipeline")
	}
}

func TestRunAllDerivesPerAppPlans(t *testing.T) {
	// The paper-scale default grids are too costly to run twice under
	// -race, so the pipeline is exercised end to end on small ones.
	// Perturb-only faults keep runs failure-free (no watchdog timeouts)
	// while still making each app's derived seed observable in the data.
	prev := defaultGridFor
	defaultGridFor = func(app string) Grid {
		g := fitGrid()
		g.Seed = int64(len(app)) // vary a little across apps
		return g
	}
	t.Cleanup(func() { defaultGridFor = prev })

	plan, err := ParseFaultSpec("perturb=0.02,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline under RunAll, inlined: per-app derived plans over the
	// (substituted) default grids, one shared fit cache.
	all := apps.All()
	campaigns := make([]*Campaign, len(all))
	reports := make([]*CampaignReport, len(all))
	for i, a := range all {
		r := &ResilientRunner{App: a, Faults: plan.Derive(appSalt(a.Name())), Retries: 2}
		campaigns[i], reports[i], err = r.Run(context.Background(), defaultGridFor(a.Name()))
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
	}
	wantFits, wantClasses, err := workload.FitAllObserved(campaigns, nil, 0, NewFitCache(), nil)
	if err != nil {
		t.Fatal(err)
	}

	results, classes, err := RunAll(context.Background(), WithFaults(plan), WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(all) {
		t.Fatalf("RunAll returned %d results, want %d", len(results), len(all))
	}
	for i := range results {
		if !bytes.Equal(asJSON(t, campaigns[i]), asJSON(t, results[i].Campaign)) {
			t.Errorf("%s: RunAll campaign differs from legacy path", all[i].Name())
		}
		if !bytes.Equal(asJSON(t, reports[i]), asJSON(t, results[i].Report)) {
			t.Errorf("%s: RunAll report differs from legacy path", all[i].Name())
		}
		// Fit diagnostics can hold ±Inf on tiny grids, which JSON refuses;
		// DeepEqual still demands exact equality.
		if !reflect.DeepEqual(wantFits[i], results[i].Requirements) {
			t.Errorf("%s: RunAll requirements differ from legacy path", all[i].Name())
		}
	}
	if !reflect.DeepEqual(wantClasses, classes) {
		t.Error("RunAll error classes differ from legacy path")
	}
}

func TestRunCacheHitEqualsMiss(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{App: "MILC", Grid: fitGrid()}

	miss, err := Run(context.Background(), spec, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if miss.CacheHit {
		t.Fatal("first run hit an empty cache")
	}
	// A second Run builds a fresh scheduler, so the hit exercises the
	// on-disk store.
	hit, err := Run(context.Background(), spec, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("second run missed the cache")
	}
	if !bytes.Equal(asJSON(t, miss.Campaign), asJSON(t, hit.Campaign)) {
		t.Error("cache hit campaign is not byte-identical to the miss")
	}
	if !bytes.Equal(asJSON(t, miss.Report), asJSON(t, hit.Report)) {
		t.Error("cache hit report is not byte-identical to the miss")
	}
	if !bytes.Equal(asJSON(t, miss.Requirements), asJSON(t, hit.Requirements)) {
		t.Error("cache hit requirements are not byte-identical to the miss")
	}
}

func TestRunUnknownApp(t *testing.T) {
	if _, err := Run(context.Background(), Spec{App: "nope"}); err == nil {
		t.Fatal("Run accepted an unknown application")
	}
}

func TestRunZeroGridSelectsDefault(t *testing.T) {
	prev := defaultGridFor
	var asked string
	defaultGridFor = func(app string) Grid {
		asked = app
		return smallGrid()
	}
	t.Cleanup(func() { defaultGridFor = prev })

	res, err := Run(context.Background(), Spec{App: "icoFoam"}, WithoutModels())
	if err != nil {
		t.Fatal(err)
	}
	if asked != "icoFoam" {
		t.Errorf("default grid resolved for %q, want icoFoam", asked)
	}
	if !bytes.Equal(asJSON(t, smallGrid()), asJSON(t, res.Campaign.Grid)) {
		t.Errorf("zero grid ran %+v, want the substituted default", res.Campaign.Grid)
	}
}

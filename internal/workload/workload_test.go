package workload

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/codesign"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/pmnf"
	"extrareq/internal/stats"
)

// smallGrid keeps unit-test campaigns fast while satisfying the
// five-configurations rule.
var smallGrid = Grid{
	Procs: []int{2, 4, 8, 16, 32},
	Ns:    []int{128, 256, 512, 1024, 2048},
	Seed:  42,
}

// measure runs a healthy campaign through the ResilientRunner.
func measure(app apps.App, g Grid) (*Campaign, error) {
	c, _, err := (&ResilientRunner{App: app}).Run(context.Background(), g)
	return c, err
}

// fitModels fits one campaign's Table II models through FitAllObserved.
func fitModels(c *Campaign, opts *modeling.Options) (*FitResult, error) {
	fits, _, err := FitAllObserved([]*Campaign{c}, opts, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	return fits[0], nil
}

func TestRunCampaign(t *testing.T) {
	c, err := measure(apps.NewKripke(), smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Samples) != 25 {
		t.Fatalf("got %d samples, want 25", len(c.Samples))
	}
	for _, s := range c.Samples {
		for _, m := range metrics.All() {
			v, ok := s.Values[m.String()]
			if !ok {
				t.Fatalf("sample p=%d n=%d missing %s", s.P, s.N, m)
			}
			if v < 0 || math.IsNaN(v) {
				t.Errorf("sample p=%d n=%d %s = %g", s.P, s.N, m, v)
			}
		}
	}
}

func TestGridValidate(t *testing.T) {
	if err := (Grid{}).Validate(); err == nil {
		t.Error("empty grid should fail")
	}
	if _, err := measure(apps.NewKripke(), Grid{}); err == nil {
		t.Error("measurement should reject empty grid")
	}
	if err := (Grid{Procs: []int{0, 2}, Ns: []int{64}}).Validate(); err == nil {
		t.Error("non-positive process count should fail")
	}
	if err := (Grid{Procs: []int{2}, Ns: []int{64, -1}}).Validate(); err == nil {
		t.Error("non-positive problem size should fail")
	}
	// The five-configurations rule of thumb (§II-C) is a warning, not a
	// validation error: sparse grids still measure.
	sparse := Grid{Procs: []int{2, 4}, Ns: []int{64}}
	if err := sparse.Validate(); err != nil {
		t.Errorf("sparse but measurable grid rejected: %v", err)
	}
}

func TestFivePointWarnings(t *testing.T) {
	sparse := Grid{Procs: []int{2, 4}, Ns: []int{64}}
	warns := sparse.FivePointWarnings()
	if len(warns) != 2 {
		t.Fatalf("got %d warnings for a 2x1 grid, want one per axis", len(warns))
	}
	if warns[0].Param != "p" || warns[0].Points != 2 || warns[0].Required != FivePointRule {
		t.Errorf("p warning = %+v", warns[0])
	}
	if warns[1].Param != "n" || warns[1].Points != 1 {
		t.Errorf("n warning = %+v", warns[1])
	}
	// Distinct values count, not axis length: duplicated points do not
	// satisfy the rule.
	dup := Grid{Procs: []int{2, 2, 2, 2, 2}, Ns: []int{1, 2, 3, 4, 5}}
	warns = dup.FivePointWarnings()
	if len(warns) != 1 || warns[0].Param != "p" || warns[0].Points != 1 {
		t.Errorf("duplicated p axis warnings = %+v, want one p warning with 1 distinct point", warns)
	}
	for _, a := range apps.All() {
		if warns := DefaultGrid(a.Name()).FivePointWarnings(); len(warns) != 0 {
			t.Errorf("%s default grid violates the five-point rule: %+v", a.Name(), warns)
		}
	}
}

func TestDefaultGridsCoverAllApps(t *testing.T) {
	for _, a := range apps.All() {
		g := DefaultGrid(a.Name())
		if len(g.Procs) < 5 || len(g.Ns) < 5 {
			t.Errorf("%s grid too small: %+v (paper rule: ≥5 per parameter)", a.Name(), g)
		}
	}
	if g := DefaultGrid("unknown"); len(g.Ns) < 5 {
		t.Error("fallback grid too small")
	}
}

func TestMeasurementsConversion(t *testing.T) {
	c, err := measure(apps.NewKripke(), smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	ms := c.Measurements(metrics.Flops)
	if len(ms) != 25 {
		t.Fatalf("got %d measurements", len(ms))
	}
	for _, m := range ms {
		if len(m.Coords) != 2 || len(m.Values) != 1 {
			t.Fatalf("malformed measurement %+v", m)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c, err := measure(apps.NewKripke(), Grid{Procs: []int{2, 4}, Ns: []int{64, 128}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.App != c.App || len(back.Samples) != len(c.Samples) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if back.Samples[0].Values[metrics.Flops.String()] != c.Samples[0].Values[metrics.Flops.String()] {
		t.Error("sample values changed in round trip")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestMessageCountsModelable(t *testing.T) {
	// Message counts are captured beyond Table I and can be modeled through
	// the generic pipeline, enabling latency-aware analyses.
	c, err := measure(apps.NewMILC(), smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	ms := c.MeasurementsByName("msgs_sent_recv")
	if len(ms) != 25 {
		t.Fatalf("got %d message measurements", len(ms))
	}
	opts := modelOptsWithCollectives()
	info, err := modeling.FitMulti(modelParams, ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	// MILC's message count grows with p (allreduce rounds ∝ log p).
	if _, ok := info.Model.DominantFactor("p"); !ok {
		t.Errorf("message model %s should grow with p", info.Model)
	}
	if c.MeasurementsByName("nonexistent") != nil {
		t.Error("unknown value name should yield no measurements")
	}
}

func modelOptsWithCollectives() *modeling.Options {
	o := modeling.DefaultOptions()
	o.Collectives = map[string]bool{"p": true}
	return o
}

func TestRepeatedRuns(t *testing.T) {
	grid := Grid{Procs: []int{2, 4, 8, 16, 32}, Ns: []int{64, 128, 256, 512, 1024}, Seed: 9, Repeats: 3}
	c, err := measure(apps.NewKripke(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Samples {
		if len(s.Runs) != 3 {
			t.Fatalf("sample p=%d n=%d has %d runs, want 3", s.P, s.N, len(s.Runs))
		}
		// Values must be the mean over runs.
		var sum float64
		for _, run := range s.Runs {
			sum += run[metrics.Flops.String()]
		}
		if got := s.Values[metrics.Flops.String()]; math.Abs(got-sum/3) > 1e-6*sum {
			t.Errorf("mean flops %g != %g", got, sum/3)
		}
	}
	ms := c.Measurements(metrics.Flops)
	if len(ms[0].Values) != 3 {
		t.Fatalf("measurement carries %d values, want 3", len(ms[0].Values))
	}
	// Repeats must still fit cleanly.
	if _, err := fitModels(c, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeasuredWarningsMatchPaperFlags(t *testing.T) {
	// End-to-end: the warnings computed from *fitted* models reproduce the
	// paper's key flags — Kripke's loads/stores and icoFoam's footprint.
	kripke, err := measure(apps.NewKripke(), DefaultGrid("Kripke"))
	if err != nil {
		t.Fatal(err)
	}
	kf, err := fitModels(kripke, nil)
	if err != nil {
		t.Fatal(err)
	}
	kw, err := codesign.Warnings(kf.App, codesign.DefaultBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if !kw[metrics.LoadsStores] {
		t.Errorf("measured Kripke loads/stores not flagged: %s", kf.App.Models[metrics.LoadsStores])
	}
	if kw[metrics.MemoryBytes] {
		t.Errorf("measured Kripke footprint wrongly flagged: %s", kf.App.Models[metrics.MemoryBytes])
	}

	ico, err := measure(apps.NewIcoFoam(), DefaultGrid("icoFoam"))
	if err != nil {
		t.Fatal(err)
	}
	ifit, err := fitModels(ico, nil)
	if err != nil {
		t.Fatal(err)
	}
	iw, err := codesign.Warnings(ifit.App, codesign.DefaultBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if !iw[metrics.MemoryBytes] {
		t.Errorf("measured icoFoam footprint not flagged: %s", ifit.App.Models[metrics.MemoryBytes])
	}
	if !iw[metrics.LoadsStores] {
		t.Errorf("measured icoFoam loads not flagged: %s", ifit.App.Models[metrics.LoadsStores])
	}
}

func TestFitKripkeShapes(t *testing.T) {
	c, err := measure(apps.NewKripke(), DefaultGrid("Kripke"))
	if err != nil {
		t.Fatal(err)
	}
	fit, err := fitModels(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Footprint, FLOP, comm: linear in n, independent of p.
	for _, m := range []metrics.Metric{metrics.MemoryBytes, metrics.Flops, metrics.CommBytes} {
		model := fit.App.Models[m]
		fn, ok := model.DominantFactor("n")
		if !ok {
			t.Errorf("%s: no n growth in %s", m, model)
			continue
		}
		if pe, le := fn.GrowthKey(); math.Abs(pe-1) > 0.2 || le > 1 {
			t.Errorf("%s: dominant n factor %+v, want ~n (model %s)", m, fn, model)
		}
		if fp, ok := model.DominantFactor("p"); ok {
			if pe, _ := fp.GrowthKey(); pe > 0.2 {
				t.Errorf("%s: unexpected polynomial p growth %+v (model %s)", m, fp, model)
			}
		}
	}
	// Loads & stores: the n·p term must be present (the paper's warning).
	ls := fit.App.Models[metrics.LoadsStores]
	fp, ok := ls.DominantFactor("p")
	if !ok {
		t.Fatalf("loads/stores: no p dependence found (model %s)", ls)
	}
	if pe, _ := fp.GrowthKey(); pe < 0.5 {
		t.Errorf("loads/stores: dominant p factor %+v, want ~p (model %s)", fp, ls)
	}
	// Stack distance constant.
	if !fit.App.Models[metrics.StackDistance].IsConstant() {
		t.Errorf("stack distance model %s, want constant", fit.App.Models[metrics.StackDistance])
	}
}

func TestFitLULESHShapes(t *testing.T) {
	c, err := measure(apps.NewLULESH(), DefaultGrid("LULESH"))
	if err != nil {
		t.Fatal(err)
	}
	fit, err := fitModels(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Footprint ~ n·log n (paper Table II): superlinear in n, p-free.
	fpModel := fit.App.Models[metrics.MemoryBytes]
	fn, ok := fpModel.DominantFactor("n")
	if !ok {
		t.Fatalf("footprint has no n growth: %s", fpModel)
	}
	if pe, le := fn.GrowthKey(); pe < 0.9 || pe > 1.2 || (pe <= 1 && le == 0) {
		t.Errorf("footprint n factor %+v, want ~n·log n (model %s)", fn, fpModel)
	}
	if _, ok := fpModel.DominantFactor("p"); ok {
		t.Errorf("footprint must not depend on p: %s", fpModel)
	}
	// FLOP couples polynomial p growth with n (the paper's ⚠).
	flop := fit.App.Models[metrics.Flops]
	fp, ok := flop.DominantFactor("p")
	if !ok {
		t.Fatalf("FLOP has no p dependence: %s", flop)
	}
	if pe, le := fp.GrowthKey(); pe <= 0 && le == 0 {
		t.Errorf("FLOP p factor %+v, want polynomial·log (model %s)", fp, flop)
	}
	// Loads & stores grow only logarithmically with p.
	ls := fit.App.Models[metrics.LoadsStores]
	if lp, ok := ls.DominantFactor("p"); ok {
		if pe, _ := lp.GrowthKey(); pe > 0.2 {
			t.Errorf("loads/stores p factor %+v, want log-only (model %s)", lp, ls)
		}
	}
}

func TestFitRelearnShapes(t *testing.T) {
	c, err := measure(apps.NewRelearn(), DefaultGrid("Relearn"))
	if err != nil {
		t.Fatal(err)
	}
	fit, err := fitModels(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Footprint ~ n^0.5 (paper's striking empirical finding).
	fp := fit.App.Models[metrics.MemoryBytes]
	fn, ok := fp.DominantFactor("n")
	if !ok {
		t.Fatalf("footprint constant: %s", fp)
	}
	if pe, _ := fn.GrowthKey(); pe < 0.3 || pe > 0.75 {
		t.Errorf("footprint n exponent %g, want ~0.5 (model %s)", pe, fp)
	}
	// Communication recovers the named collectives.
	comm := fit.App.Models[metrics.CommBytes]
	foundCollective := false
	for _, term := range comm.Terms {
		for _, f := range term.Factors {
			if f.Special != pmnf.None {
				foundCollective = true
			}
		}
	}
	if !foundCollective {
		t.Errorf("Relearn comm model lost the collective terms: %s", comm)
	}
	// Stack distance constant.
	if !fit.App.Models[metrics.StackDistance].IsConstant() {
		t.Errorf("stack distance = %s, want constant", fit.App.Models[metrics.StackDistance])
	}
}

func TestFitMILCStackDistanceGrows(t *testing.T) {
	c, err := measure(apps.NewMILC(), DefaultGrid("MILC"))
	if err != nil {
		t.Fatal(err)
	}
	fit, err := fitModels(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	sd := fit.App.Models[metrics.StackDistance]
	fn, ok := sd.DominantFactor("n")
	if !ok {
		t.Fatalf("MILC stack distance should grow with n (model %s)", sd)
	}
	if pe, _ := fn.GrowthKey(); pe < 0.7 || pe > 1.3 {
		t.Errorf("MILC stack distance dominant factor %+v, want ~n (model %s)", fn, sd)
	}
}

func TestFitResultRelErrors(t *testing.T) {
	c, err := measure(apps.NewKripke(), smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := fitModels(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	errs := fit.RelErrors()
	if len(errs) != 25*int(metrics.NumMetrics) {
		t.Fatalf("got %d rel errors, want %d", len(errs), 25*metrics.NumMetrics)
	}
	classes := stats.ClassifyRelativeErrors(errs)
	// The paper's Figure 3 quality bar: the overwhelming majority of
	// measurements are explained to within 5%.
	if frac := stats.FractionBelow(classes, 0.05); frac < 0.7 {
		t.Errorf("only %.0f%% of measurements within 5%%; models too weak", frac*100)
	}
}

func TestFitUsesCollectivesForComm(t *testing.T) {
	// The fit must at least run with collectives enabled and produce a
	// valid comm model; presence of a Special factor depends on the app.
	c, err := measure(apps.NewRelearn(), DefaultGrid("Relearn"))
	if err != nil {
		t.Fatal(err)
	}
	fit, err := fitModels(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fit.App.Models[metrics.CommBytes] == nil {
		t.Fatal("missing comm model")
	}
	_ = pmnf.Allreduce // collective basis available to the fit
}

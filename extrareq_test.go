package extrareq

import (
	"context"
	"strings"
	"testing"

	"extrareq/internal/workload"
)

func TestMeasureAndModelKripke(t *testing.T) {
	grid := Grid{Procs: []int{2, 4, 8, 16, 32}, Ns: []int{128, 256, 512, 1024, 2048}, Seed: 1}
	res, err := Run(context.Background(), Spec{App: "Kripke", Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	c, reqs := res.Campaign, res.Requirements
	for _, m := range []Metric{MemoryBytes, Flops, CommBytes, LoadsStores, StackDistance} {
		if reqs.App.Models[m] == nil {
			t.Errorf("missing %s model", m)
		}
	}
	// The fitted app must be usable in a co-design study end to end.
	study, err := StudyUpgrades([]App{reqs.App}, DefaultBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(study["Kripke"]) != 3 {
		t.Fatalf("study outcomes = %d, want 3", len(study["Kripke"]))
	}
	// And carry a usable uncertainty estimate.
	iv, err := reqs.Interval(c, Flops, 64, 2048, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo > iv.Point || iv.Point > iv.Hi {
		// The point comes from the full search and can sit slightly
		// outside the shape-conditional interval, but not wildly.
		if iv.Point < iv.Lo*0.5 || iv.Point > iv.Hi*1.5 {
			t.Errorf("interval %+v inconsistent with point estimate", iv)
		}
	}
}

func TestPaperPipelineRenderers(t *testing.T) {
	apps := PaperApps()
	if len(apps) != 5 || len(PaperAppNames()) != 5 {
		t.Fatal("expected 5 paper apps")
	}
	if out := RenderTable1(); !strings.Contains(out, "Table I") {
		t.Error("Table 1 render")
	}
	if out, err := RenderTable2(apps, DefaultBaseline()); err != nil || !strings.Contains(out, "Kripke") {
		t.Errorf("Table 2 render: %v", err)
	}
	if out := RenderTable3(); !strings.Contains(out, "Double the memory") {
		t.Error("Table 3 render")
	}
	if out, err := RenderTable4(apps[1], DefaultBaseline(), Upgrades()[0]); err != nil || !strings.Contains(out, "LULESH") {
		t.Errorf("Table 4 render: %v", err)
	}
	study, err := StudyUpgrades(apps, DefaultBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTable5(study, PaperAppNames()); !strings.Contains(out, "System upgrade B") {
		t.Error("Table 5 render")
	}
	if out := RenderTable6(); !strings.Contains(out, "Vector") {
		t.Error("Table 6 render")
	}
	ex, err := StudyExascale(apps)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTable7(ex); !strings.Contains(out, "does not fit") {
		t.Error("Table 7 render")
	}
	w, err := Warnings(apps[0], DefaultBaseline())
	if err != nil || !w[LoadsStores] {
		t.Errorf("Kripke warnings = %v, err %v", w, err)
	}
}

func TestUpgradeAndStrawMenCounts(t *testing.T) {
	if len(Upgrades()) != 3 {
		t.Error("want 3 upgrades")
	}
	if len(StrawMen()) != 3 {
		t.Error("want 3 straw-men")
	}
}

func TestStudyRatedFacade(t *testing.T) {
	out, err := StudyRated(PaperApps()[2], func(s System) Rates { // MILC
		return DefaultRates(s.FlopsPerProcessor)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d outcomes", len(out))
	}
	if r := RenderRated("MILC", out); !strings.Contains(r, "Bottleneck") {
		t.Error("rated render missing bottleneck column")
	}
}

func TestStudySharedFacade(t *testing.T) {
	apps := PaperApps()
	fractions := make([]float64, len(apps))
	for i := range fractions {
		fractions[i] = 1 / float64(len(apps))
	}
	out, err := StudyShared(apps, DefaultBaseline(), fractions)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("got %d outcomes", len(out))
	}
	if r := RenderShared(out); !strings.Contains(r, "20%") {
		t.Error("shared render missing fraction")
	}
}

func TestMeasurePathsFacade(t *testing.T) {
	if _, err := MeasurePaths("nope"); err == nil {
		t.Fatal("unknown app accepted")
	}
	c, err := MeasurePaths("Kripke")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Paths()) == 0 {
		t.Fatal("no communication paths found")
	}
	hot, err := CommHotSpots(c, 1<<18, 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 {
		t.Fatal("no hot spots")
	}
	if _, err := ModelCommPath(c, c.Paths()[0]); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultGridIsExposedViaMeasure(t *testing.T) {
	// Run uses the default grid; just check it is well-formed here
	// (full campaigns are exercised in the workload tests and benches).
	g := workload.DefaultGrid("LULESH")
	if len(g.Procs) < 5 || len(g.Ns) < 5 {
		t.Fatalf("default grid too small: %+v", g)
	}
}

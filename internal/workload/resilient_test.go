package workload

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"extrareq/internal/apps"
	"extrareq/internal/simmpi"
	"extrareq/internal/trace"
)

// ringApp is a minimal proxy used by the resilience tests: a neighbour
// exchange with enough communication events (140 per rank) that every
// probabilistically drawn kill actually fires, with deterministic counters
// so campaign outcomes can be compared byte for byte.
type ringApp struct{}

func (ringApp) Name() string { return "RingTest" }

func (ringApp) Run(cfg apps.Config) ([]simmpi.Result, error) {
	return simmpi.RunOpt(cfg.Procs, &simmpi.Options{Faults: cfg.Faults, Timeout: cfg.Timeout},
		func(p *simmpi.Proc) error {
			p.Counters.Alloc(int64(cfg.N) * 8)
			p.AddFlops(int64(cfg.N * cfg.Procs))
			p.AddLoads(int64(cfg.N))
			p.AddStores(int64(cfg.N / 2))
			right := (p.Rank() + 1) % p.Size()
			left := (p.Rank() - 1 + p.Size()) % p.Size()
			for i := 0; i < 70; i++ {
				p.SendRecv(right, []float64{float64(i)}, left)
			}
			return nil
		})
}

func (ringApp) LocalityProbe(n int, rec trace.Recorder) {
	for i := 0; i < 256; i++ {
		rec.Record(uint64(i%16)*64, "ring/exchange")
	}
}

var _ apps.App = ringApp{}

// probeCounter is ringApp with its locality probes counted per n.
type probeCounter struct {
	ringApp
	probes map[int]int
}

func (a *probeCounter) LocalityProbe(n int, rec trace.Recorder) {
	a.probes[n]++
	a.ringApp.LocalityProbe(n, rec)
}

// noSleep makes retry backoff free in tests.
func noSleep(time.Duration) {}

var resilientGrid = Grid{Procs: []int{2, 4}, Ns: []int{32, 64}, Seed: 42}

// TestResilientFullRecovery is the happy acceptance path: heavy injected
// rank kills, but a retry budget large enough that every configuration
// eventually measures — the campaign is complete and the report says so.
func TestResilientFullRecovery(t *testing.T) {
	plan := simmpi.NewFaultPlan(1)
	plan.Kill = 0.5
	r := &ResilientRunner{
		App:        ringApp{},
		Faults:     plan,
		Retries:    10,
		RunTimeout: 2 * time.Second,
		MinPoints:  2,
		Sleep:      noSleep,
	}
	c, report, err := r.Run(context.Background(), resilientGrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Samples) != 4 {
		t.Fatalf("got %d samples, want all 4 configurations recovered", len(c.Samples))
	}
	if report.Degraded() {
		t.Errorf("fully recovered campaign reported degraded:\n%s", report.Render())
	}
	if report.Recovered == 0 {
		t.Error("kill=0.5 over 4 configurations caused no retries at all; fault injection seems inert")
	}
	if report.ExtraRuns < report.Recovered {
		t.Errorf("ExtraRuns = %d < Recovered = %d", report.ExtraRuns, report.Recovered)
	}
	if !strings.Contains(report.Render(), "verdict: full fit") {
		t.Errorf("report does not render a full-fit verdict:\n%s", report.Render())
	}
	// Surviving samples keep campaign order: p-major, n-minor.
	want := [][2]int{{2, 32}, {2, 64}, {4, 32}, {4, 64}}
	for i, s := range c.Samples {
		if s.P != want[i][0] || s.N != want[i][1] {
			t.Errorf("sample %d is (p=%d, n=%d), want (p=%d, n=%d)", i, s.P, s.N, want[i][0], want[i][1])
		}
	}
}

// TestAssemble pins the accounting that fixed-grid and adaptive campaigns
// share: quarantined configurations leave the campaign but count their
// failed runs, and the surviving axes are checked against the threshold,
// n before p, with 0 selecting the five-point rule.
func TestAssemble(t *testing.T) {
	grid := Grid{Procs: []int{2, 4}, Ns: []int{32, 64}, Seed: 1}
	outcomes := []ConfigOutcome{
		{P: 2, N: 32, Attempts: 1},
		{P: 2, N: 64, Attempts: 3},
		{P: 4, N: 32, Attempts: 2, Quarantined: true, Errors: []string{"a", "b"}},
		{P: 4, N: 64, Attempts: 1},
	}
	samples := make([]Sample, len(outcomes))
	for i, out := range outcomes {
		if !out.Quarantined {
			samples[i] = Sample{P: out.P, N: out.N, Values: map[string]float64{"x": float64(i)}}
		}
	}
	c, rep := Assemble("app", grid, "seed=1,kill=0.5", samples, outcomes, 0)
	if len(c.Samples) != 3 || c.Samples[2].P != 4 || c.Samples[2].N != 64 {
		t.Errorf("campaign samples = %+v, want the three survivors in campaign order", c.Samples)
	}
	if c.App != "app" || c.Grid.Seed != 1 || rep.App != "app" || rep.Plan != "seed=1,kill=0.5" {
		t.Errorf("campaign %q/%+v, report %q/%q: identity not carried through", c.App, c.Grid, rep.App, rep.Plan)
	}
	if rep.Configs != 4 || len(rep.Outcomes) != 4 || rep.Recovered != 1 || rep.ExtraRuns != 3 {
		t.Errorf("report configs/outcomes/recovered/extra = %d/%d/%d/%d, want 4/4/1/3",
			rep.Configs, len(rep.Outcomes), rep.Recovered, rep.ExtraRuns)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].P != 4 || rep.Quarantined[0].N != 32 {
		t.Errorf("quarantined = %+v, want (4, 32)", rep.Quarantined)
	}
	want := []AxisWarning{{Param: "n", Points: 2, Required: FivePointRule}, {Param: "p", Points: 2, Required: FivePointRule}}
	if fmt.Sprint(rep.AxisWarnings) != fmt.Sprint(want) {
		t.Errorf("axis warnings = %v, want %v", rep.AxisWarnings, want)
	}
	if _, rep := Assemble("app", grid, "", samples, outcomes, 2); len(rep.AxisWarnings) != 0 {
		t.Errorf("threshold 2 with two surviving values per axis warned: %v", rep.AxisWarnings)
	}
}

// TestResilientAllQuarantined: a targeted kill that fires on every attempt
// exhausts the budget everywhere; Run must fail loudly with the report
// naming every lost configuration — never return a silently empty fit.
func TestResilientAllQuarantined(t *testing.T) {
	plan := simmpi.NewFaultPlan(2)
	plan.KillRank, plan.KillEvent = 0, 3
	r := &ResilientRunner{App: ringApp{}, Faults: plan, Retries: 1, RunTimeout: 2 * time.Second, Sleep: noSleep}
	c, report, err := r.Run(context.Background(), resilientGrid)
	if err == nil {
		t.Fatalf("campaign with unrecoverable faults reported success: %+v", c)
	}
	if !strings.Contains(err.Error(), "lost all 4 configurations") {
		t.Errorf("error %q does not name the total loss", err)
	}
	if report == nil {
		t.Fatal("no report alongside the all-lost error")
	}
	if len(report.Quarantined) != 4 {
		t.Fatalf("report quarantined %d configurations, want 4", len(report.Quarantined))
	}
	for _, q := range report.Quarantined {
		if q.Attempts != 2 || len(q.Errors) != 2 {
			t.Errorf("config p=%d n=%d made %d attempts with %d errors, want 2 and 2", q.P, q.N, q.Attempts, len(q.Errors))
		}
		if !strings.Contains(q.Errors[0], "killed by fault injection") {
			t.Errorf("config p=%d n=%d error %q does not name the injected kill", q.P, q.N, q.Errors[0])
		}
	}
}

// TestResilientPartialQuarantineDegrades: with no retry budget and heavy
// kills, some configurations are lost; the campaign survives with the
// remainder and the report flags the quarantine and the axis coverage loss.
func TestResilientPartialQuarantineDegrades(t *testing.T) {
	plan := simmpi.NewFaultPlan(7)
	plan.Kill = 0.6
	r := &ResilientRunner{App: ringApp{}, Faults: plan, Retries: 0, RunTimeout: 2 * time.Second, Sleep: noSleep}
	c, report, err := r.Run(context.Background(), resilientGrid)
	if err != nil {
		t.Fatalf("partial loss must degrade, not fail: %v", err)
	}
	if len(report.Quarantined) == 0 {
		t.Fatal("seed 7 with kill=0.6 and no retries lost no configuration; pick a different seed")
	}
	if len(c.Samples)+len(report.Quarantined) != 4 {
		t.Errorf("samples (%d) + quarantined (%d) != 4 configurations", len(c.Samples), len(report.Quarantined))
	}
	if !report.Degraded() {
		t.Error("report with quarantined configurations is not degraded")
	}
	// MinPoints defaults to the paper's five-point rule; a 2x2 grid is below
	// it on both axes even before losses.
	if len(report.AxisWarnings) != 2 {
		t.Errorf("got %d axis warnings, want both axes below the five-point rule", len(report.AxisWarnings))
	}
	rendered := report.Render()
	for _, want := range []string{"DEGRADED", "quarantined:", "below the paper's 5-point rule"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered report missing %q:\n%s", want, rendered)
		}
	}
	for _, q := range report.Quarantined {
		needle := fmt.Sprintf("p=%d n=%d:", q.P, q.N)
		if !strings.Contains(rendered, needle) {
			t.Errorf("rendered report does not name quarantined config %s\n%s", needle, rendered)
		}
	}
}

// TestResilientDeterministicAcrossWorkers is the acceptance criterion: a
// fixed-seed fault plan yields byte-identical campaign outcomes across
// repeated runs and across worker counts. Delay faults are excluded (pure
// wall-clock) but kills, drops, duplicates, and counter perturbation are
// all active.
func TestResilientDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		t.Helper()
		plan := simmpi.NewFaultPlan(3)
		plan.Kill, plan.Drop, plan.Dup, plan.Perturb = 0.3, 0.001, 0.002, 0.05
		r := &ResilientRunner{
			App:        ringApp{},
			Faults:     plan,
			Retries:    2,
			RunTimeout: 150 * time.Millisecond,
			Workers:    workers,
			Sleep:      noSleep,
		}
		c, report, err := r.Run(context.Background(), resilientGrid)
		if err != nil {
			t.Fatal(err)
		}
		cj, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		rj, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		return string(cj) + "\n" + string(rj)
	}
	ref := run(1)
	for _, workers := range []int{1, 2, 8} {
		if got := run(workers); got != ref {
			t.Errorf("campaign with %d workers differs from the single-worker reference:\n%s\n---\n%s", workers, got, ref)
		}
	}
}

// TestRunAndFitDegraded: graceful degradation end to end — a campaign that
// loses points still fits models from the survivors, and the report carries
// the warnings that qualify them.
func TestRunAndFitDegraded(t *testing.T) {
	plan := simmpi.NewFaultPlan(5)
	plan.Kill = 0.5
	r := &ResilientRunner{
		App:        ringApp{},
		Faults:     plan,
		Retries:    1,
		RunTimeout: 2 * time.Second,
		Sleep:      noSleep,
	}
	// A full five-point grid, so the generator can fit as long as every axis
	// value survives in at least one configuration; with kill=0.5 and one
	// retry roughly a quarter of the configurations are quarantined.
	grid := Grid{Procs: []int{2, 3, 4, 5, 6}, Ns: []int{32, 40, 48, 56, 64}, Seed: 42}
	c, report, err := r.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := fitModels(c, nil)
	if err != nil {
		t.Fatalf("degraded campaign could not be fitted: %v", err)
	}
	if len(fit.App.Models) == 0 {
		t.Error("fit produced no models")
	}
	if len(report.Quarantined) == 0 {
		t.Fatal("seed 5 with kill=0.5 and one retry quarantined nothing; pick a different seed")
	}
	if !report.Degraded() {
		t.Errorf("campaign with quarantined configurations not flagged as degraded:\n%s", report.Render())
	}
	if len(c.Samples)+len(report.Quarantined) != 25 {
		t.Errorf("samples (%d) + quarantined (%d) != 25 configurations", len(c.Samples), len(report.Quarantined))
	}
}

// TestResilientHealthySystemNoOverhead: without a fault plan the runner is
// the plain parallel measurement loop with insurance — same campaign,
// clean report.
func TestResilientHealthySystemNoOverhead(t *testing.T) {
	r := &ResilientRunner{App: apps.NewKripke(), Retries: 2, MinPoints: 2, Sleep: noSleep}
	c, report, err := r.Run(context.Background(), resilientGrid)
	if err != nil {
		t.Fatal(err)
	}
	// SHA-256 of this campaign's JSON as the plain parallel loop, since
	// removed, produced it.
	const pin = "f7ffff71defdadebb7373c3ff19ceeb9fd58561ff82c5d8a72aca1ad8f33ba7e"
	a, _ := json.Marshal(c)
	if got := fmt.Sprintf("%x", sha256.Sum256(a)); got != pin {
		t.Errorf("resilient campaign on a healthy system: SHA-256 %s, want %s (the plain loop's)", got, pin)
	}
	if report.Degraded() || report.ExtraRuns != 0 || report.Recovered != 0 {
		t.Errorf("healthy campaign report is not clean: %+v", report)
	}
}

// TestResilientRunnerProbesEachNOnce: a grid that repeats a problem size
// probes it once, so Ns [64, 64, 128] makes two locality probes, not
// three.
func TestResilientRunnerProbesEachNOnce(t *testing.T) {
	app := &probeCounter{probes: map[int]int{}}
	r := &ResilientRunner{App: app, Workers: 2}
	if _, _, err := r.Run(context.Background(), Grid{Procs: []int{2, 4}, Ns: []int{64, 64, 128}, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if want := map[int]int{64: 1, 128: 1}; !reflect.DeepEqual(app.probes, want) {
		t.Errorf("probes per n = %v, want %v", app.probes, want)
	}
}

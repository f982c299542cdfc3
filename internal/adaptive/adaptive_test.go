package adaptive

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/obs"
	"extrareq/internal/pmnf"
	"extrareq/internal/simmpi"
	"extrareq/internal/workload"
)

func testApp(t testing.TB) apps.App {
	t.Helper()
	app, ok := apps.ByName("Kripke")
	if !ok {
		t.Fatal("app Kripke not registered")
	}
	return app
}

// testGrid is a 4x4 grid: big enough for refinement to skip points, small
// enough for millisecond campaigns.
func testGrid() workload.Grid {
	return workload.Grid{Procs: []int{2, 4, 8, 16}, Ns: []int{32, 64, 128, 256}, Seed: 7}
}

func newScheduler(t testing.TB, o campaign.Options) *campaign.Scheduler {
	t.Helper()
	s, err := campaign.New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// countApp wraps a proxy app and counts Run invocations per (p, n). It
// reports the wrapped app's name, so point keys and campaign bytes match
// the bare app's.
type countApp struct {
	apps.App
	mu   sync.Mutex
	runs map[[2]int]int
}

func newCountApp(t testing.TB) *countApp {
	return &countApp{App: testApp(t), runs: map[[2]int]int{}}
}

func (a *countApp) Run(cfg apps.Config) ([]simmpi.Result, error) {
	a.mu.Lock()
	a.runs[[2]int{cfg.Procs, cfg.N}]++
	a.mu.Unlock()
	return a.App.Run(cfg)
}

func (a *countApp) count(p, n int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.runs[[2]int{p, n}]
}

// encodeResult renders a finished adaptive run to its canonical cache
// bytes, the byte-reproducibility currency of these tests.
func encodeResult(t testing.TB, res *Result) []byte {
	t.Helper()
	data, err := campaign.EncodeEntry(res.Key, res.Campaign.App, res.Campaign, res.Report)
	if err != nil {
		t.Fatalf("encoding adaptive result: %v", err)
	}
	return data
}

func TestComputeKeySensitivity(t *testing.T) {
	app := testApp(t)
	base := campaign.Request{App: app, Grid: testGrid()}
	k0 := ComputeKey(base, Options{})
	if k0 != ComputeKey(base, Options{}) {
		t.Fatal("same request hashed to different keys")
	}
	if k0 == campaign.ComputeKey(base) {
		t.Error("adaptive key collides with the fixed-grid campaign key")
	}

	// Explicit defaults and the zero value describe the same refinement, so
	// they must coalesce onto one cache entry. 4x4 grid: batch 2, budget 8.
	explicit := Options{BatchSize: 2, MaxPoints: 8, Improvement: 0.02, StableRounds: 1}
	if ComputeKey(base, explicit) != k0 {
		t.Error("explicit default options changed the key")
	}

	perturb := map[string]Options{
		"batch":       {BatchSize: 3},
		"maxpoints":   {MaxPoints: 9},
		"improvement": {Improvement: 0.1},
		"stable":      {StableRounds: 2},
	}
	for name, o := range perturb {
		if ComputeKey(base, o) == k0 {
			t.Errorf("changing %s did not change the adaptive key", name)
		}
	}
	r := base
	r.Grid.Seed = 8
	if ComputeKey(r, Options{}) == k0 {
		t.Error("changing the grid seed did not change the adaptive key")
	}
}

// The seed is the grid's baseline lines, so it covers every distinct value
// of both axes: refinement can never introduce a five-point warning the
// full grid would not also report.
func TestSeedCoversAxes(t *testing.T) {
	e := &engine{procs: []int{2, 4, 8}, ns: []int{32, 64, 128, 256}}
	seen := map[string]map[int]bool{"p": {}, "n": {}}
	for _, pt := range e.seedPoints() {
		seen["p"][pt[0]] = true
		seen["n"][pt[1]] = true
	}
	if len(seen["p"]) != 3 || len(seen["n"]) != 4 {
		t.Fatalf("seed covers %d p values and %d n values, want 3 and 4",
			len(seen["p"]), len(seen["n"]))
	}
	if got, want := len(e.seedPoints()), 3+4-1; got != want {
		t.Errorf("seed has %d points, want %d (the baseline lines)", got, want)
	}
}

// Adaptive runs report exactly the axis warnings the requested grid would:
// none on a five-point grid, the full grid's warnings on a sparse one, and
// none again when WithMinPoints lowers the threshold to the grid.
func TestAdaptiveFivePointWarnings(t *testing.T) {
	ctx := context.Background()
	app := testApp(t)

	// 4x4 grid, default threshold: both axes are below the five-point
	// rule for the full grid and must stay exactly that in the adaptive
	// report — no more, no fewer.
	s := newScheduler(t, campaign.Options{Workers: 4})
	res, err := Run(ctx, s, campaign.Request{App: app, Grid: testGrid()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Run(ctx, campaign.Request{App: app, Grid: testGrid()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Report.AxisWarnings), len(full.Report.AxisWarnings); got != want {
		t.Fatalf("adaptive run has %d axis warnings, full grid has %d:\n%v\nvs\n%v",
			got, want, res.Report.AxisWarnings, full.Report.AxisWarnings)
	}
	for i, w := range res.Report.AxisWarnings {
		if w != full.Report.AxisWarnings[i] {
			t.Errorf("warning %d differs: adaptive %+v, full %+v", i, w, full.Report.AxisWarnings[i])
		}
	}

	// MinPoints lowered to the axis size: the warnings disappear for both,
	// and the adaptive run must not silently create any.
	req := campaign.Request{App: app, Grid: testGrid(), MinPoints: 4}
	res, err = Run(ctx, newScheduler(t, campaign.Options{Workers: 4}), req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.AxisWarnings) != 0 {
		t.Errorf("adaptive run with MinPoints=4 reports warnings: %v", res.Report.AxisWarnings)
	}
}

// modelsAgree reports whether two fitted models make the same Table-II
// claim: identical growth structure, or — for near-tied hypotheses where
// the search legitimately picks either form — predictions within tol
// relative difference over the grid and a 4x extrapolation of its top
// corner.
func modelsAgree(a, b *pmnf.Model, grid workload.Grid, tol float64) bool {
	if ModelShape(a) == ModelShape(b) {
		return true
	}
	pmax := float64(grid.Procs[len(grid.Procs)-1])
	nmax := float64(grid.Ns[len(grid.Ns)-1])
	var pts [][2]float64
	for _, p := range grid.Procs {
		for _, n := range grid.Ns {
			pts = append(pts, [2]float64{float64(p), float64(n)})
		}
	}
	pts = append(pts, [2]float64{2 * pmax, 2 * nmax}, [2]float64{4 * pmax, 4 * nmax})
	for _, pt := range pts {
		va, vb := a.Eval(pt[0], pt[1]), b.Eval(pt[0], pt[1])
		denom := math.Max(math.Abs(va), math.Abs(vb))
		if denom > 0 && math.Abs(va-vb)/denom > tol {
			return false
		}
	}
	return true
}

// The core acceptance gate: on every paper proxy over its default grid,
// the adaptive run selects at most half the grid and its fitted
// requirement models make the same Table-II claims as the full-grid fit.
func TestAdaptiveMatchesFullGridModels(t *testing.T) {
	if testing.Short() {
		t.Skip("full five-proxy comparison in -short mode")
	}
	ctx := context.Background()
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app, _ := apps.ByName(name)
			grid := workload.DefaultGrid(name)
			req := campaign.Request{App: app, Grid: grid}
			s := newScheduler(t, campaign.Options{})

			full, err := s.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			// A fresh scheduler so the adaptive run cannot reuse the full
			// run's points: the claim is about what adaptive would measure
			// on its own.
			res, err := Run(ctx, newScheduler(t, campaign.Options{}), req, Options{})
			if err != nil {
				t.Fatal(err)
			}

			fullN := len(grid.Procs) * len(grid.Ns)
			if sel := res.Report.Configs; sel*2 > fullN {
				t.Errorf("adaptive selected %d of %d points, want at most half", sel, fullN)
			}
			if res.PointsSaved != fullN-res.Report.Configs {
				t.Errorf("PointsSaved = %d, want %d", res.PointsSaved, fullN-res.Report.Configs)
			}

			fits, _, err := workload.FitAllObserved([]*workload.Campaign{full.Campaign, res.Campaign},
				modeling.DefaultOptions(), 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			fitFull, fitAdaptive := fits[0], fits[1]
			for _, m := range metrics.All() {
				if !modelsAgree(fitAdaptive.Info[m].Model, fitFull.Info[m].Model, grid, 0.10) {
					t.Errorf("%s: adaptive model %q disagrees with full-grid model %q (%d of %d points)",
						m, fitAdaptive.Info[m].Model, fitFull.Info[m].Model, res.Report.Configs, fullN)
				}
			}
		})
	}
}

// Byte-reproducibility: the same request and options produce identical
// campaign bytes across repeats and worker counts, and a repeat on the
// same scheduler is a campaign-level cache hit carrying those bytes.
func TestAdaptiveDeterministic(t *testing.T) {
	ctx := context.Background()
	req := campaign.Request{App: testApp(t), Grid: testGrid()}

	s1 := newScheduler(t, campaign.Options{Workers: 1})
	res1, err := Run(ctx, s1, req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s8 := newScheduler(t, campaign.Options{Workers: 8})
	res8, err := Run(ctx, s8, req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1, b8 := encodeResult(t, res1), encodeResult(t, res8)
	if !bytes.Equal(b1, b8) {
		t.Error("adaptive runs differ between 1 and 8 workers")
	}
	if res1.Key != res8.Key {
		t.Error("adaptive keys differ between runs of the same request")
	}

	// Repeat on a warm scheduler: answered from the adaptive campaign
	// entry, byte-identical, nothing measured.
	again, err := Run(ctx, s8, req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("repeat adaptive run was not a cache hit")
	}
	if again.PointsMeasured != 0 {
		t.Errorf("repeat adaptive run measured %d points, want 0", again.PointsMeasured)
	}
	if !bytes.Equal(encodeResult(t, again), b8) {
		t.Error("cache-hit repeat differs from the original run")
	}
}

// Budget and accounting invariants on the fresh-run result.
func TestAdaptiveBudgetAndAccounting(t *testing.T) {
	ctx := context.Background()
	req := campaign.Request{App: testApp(t), Grid: testGrid()}
	full := len(testGrid().Procs) * len(testGrid().Ns)

	res, err := Run(ctx, newScheduler(t, campaign.Options{Workers: 4}), req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FullGridPoints != full {
		t.Errorf("FullGridPoints = %d, want %d", res.FullGridPoints, full)
	}
	if res.Report.Configs*2 > full {
		t.Errorf("selected %d of %d points, default budget is half", res.Report.Configs, full)
	}
	if res.PointsReused+res.PointsMeasured != res.Report.Configs {
		t.Errorf("reused %d + measured %d != selected %d",
			res.PointsReused, res.PointsMeasured, res.Report.Configs)
	}
	if res.PointsSaved != full-res.Report.Configs {
		t.Errorf("PointsSaved = %d, want %d", res.PointsSaved, full-res.Report.Configs)
	}
	if res.Rounds < 1 {
		t.Errorf("Rounds = %d, want at least the seed fit", res.Rounds)
	}

	// A budget at the seed size stops immediately after the seed.
	seed := len(testGrid().Procs) + len(testGrid().Ns) - 1
	res, err = Run(ctx, newScheduler(t, campaign.Options{Workers: 4}), req, Options{MaxPoints: seed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Configs != seed {
		t.Errorf("selected %d points under a seed-sized budget, want %d", res.Report.Configs, seed)
	}
}

// Progress streams are monotone: the campaign-style done/reused/measured
// callbacks never regress, and total is always the full grid.
func TestAdaptiveProgressMonotone(t *testing.T) {
	ctx := context.Background()
	full := len(testGrid().Procs) * len(testGrid().Ns)
	var mu sync.Mutex
	lastDone, lastReused, lastMeasured := 0, 0, 0
	req := campaign.Request{
		App:  testApp(t),
		Grid: testGrid(),
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != full {
				t.Errorf("Progress total = %d, want the full grid %d", total, full)
			}
			if done < lastDone {
				t.Errorf("Progress done regressed from %d to %d", lastDone, done)
			}
			lastDone = done
		},
		PointProgress: func(reused, measured int) {
			mu.Lock()
			defer mu.Unlock()
			if reused < lastReused || measured < lastMeasured {
				t.Errorf("PointProgress regressed: (%d,%d) after (%d,%d)",
					reused, measured, lastReused, lastMeasured)
			}
			lastReused, lastMeasured = reused, measured
		},
	}
	if _, err := Run(ctx, newScheduler(t, campaign.Options{Workers: 4}), req, Options{}); err != nil {
		t.Fatal(err)
	}
}

// Adaptive runs feed the adaptive_* instruments.
func TestAdaptiveObsCounters(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	req := campaign.Request{App: testApp(t), Grid: testGrid(), Metrics: reg}
	s := newScheduler(t, campaign.Options{Workers: 4})
	res, err := Run(ctx, s, req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot().Counters
	if got := snap[obs.MetricAdaptiveRounds]; got != int64(res.Rounds) {
		t.Errorf("%s = %d, want %d", obs.MetricAdaptiveRounds, got, res.Rounds)
	}
	if got := snap[obs.MetricAdaptivePointsMeasured]; got != int64(res.PointsMeasured) {
		t.Errorf("%s = %d, want %d", obs.MetricAdaptivePointsMeasured, got, res.PointsMeasured)
	}
	if got := snap[obs.MetricAdaptivePointsSaved]; got != int64(res.PointsSaved) {
		t.Errorf("%s = %d, want %d", obs.MetricAdaptivePointsSaved, got, res.PointsSaved)
	}
	stops := snap[obs.MetricAdaptiveConverged] + snap[obs.MetricAdaptiveBudgetStop]
	if stops != 1 {
		t.Errorf("converged + budget_stop = %d, want exactly 1", stops)
	}

	// The repeat is a cache hit.
	if _, err := Run(ctx, s, req, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters[obs.MetricAdaptiveCacheHit]; got != 1 {
		t.Errorf("%s = %d after a repeat, want 1", obs.MetricAdaptiveCacheHit, got)
	}
}

// The -race soak of the ISSUE: an adaptive campaign and a fixed-grid
// campaign run concurrently on two schedulers sharing one store. Their
// shared points (pre-seeded, like the cross-process sharding test) are
// measured at most once across all runs, and the adaptive bytes match a
// solo run's.
func TestAdaptiveSharedStoreSoak(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	app := newCountApp(t)
	s1 := newScheduler(t, campaign.Options{Workers: 4, Dir: dir})
	s2 := newScheduler(t, campaign.Options{Workers: 4, Dir: dir})

	// Pre-seed the n=32 column — the overlap between the adaptive grid and
	// the fixed grid below — so the concurrent runs share only points that
	// already have entries.
	colGrid := workload.Grid{Procs: testGrid().Procs, Ns: []int{32}, Seed: 7}
	if _, err := s1.Run(ctx, campaign.Request{App: app, Grid: colGrid}); err != nil {
		t.Fatal(err)
	}

	// The fixed grid shares the n=32 column with the adaptive grid and
	// adds an n=512 column the adaptive run can never select.
	fixedGrid := workload.Grid{Procs: testGrid().Procs, Ns: []int{32, 512}, Seed: 7}
	var adaptiveRes *Result
	var fixedOut *campaign.Outcome
	var errA, errF error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		adaptiveRes, errA = Run(ctx, s1, campaign.Request{App: app, Grid: testGrid()}, Options{})
	}()
	go func() {
		defer wg.Done()
		fixedOut, errF = s2.Run(ctx, campaign.Request{App: app, Grid: fixedGrid})
	}()
	wg.Wait()
	if errA != nil || errF != nil {
		t.Fatalf("concurrent runs: %v / %v", errA, errF)
	}

	// Every shared point was measured exactly once (during the pre-seed),
	// every other point at most once by whichever run selected it.
	for _, p := range testGrid().Procs {
		if got := app.count(p, 32); got != 1 {
			t.Errorf("shared point (%d,32) measured %d times, want exactly 1", p, got)
		}
		for _, n := range []int{64, 128, 256, 512} {
			if got := app.count(p, n); got > 1 {
				t.Errorf("point (%d,%d) measured %d times, want at most 1", p, n, got)
			}
		}
	}
	if fixedOut.PointsReused != len(testGrid().Procs) {
		t.Errorf("fixed run reused %d points, want the pre-seeded column (%d)",
			fixedOut.PointsReused, len(testGrid().Procs))
	}

	// The concurrent adaptive run is byte-identical to a solo cold run.
	solo, err := Run(ctx, newScheduler(t, campaign.Options{Workers: 4}),
		campaign.Request{App: testApp(t), Grid: testGrid()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResult(t, adaptiveRes), encodeResult(t, solo)) {
		t.Error("concurrent adaptive run differs from a solo run")
	}
}

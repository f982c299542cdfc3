package extrareq

import (
	"context"
	"fmt"
	"sync"

	"extrareq/internal/adaptive"
	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/modeling"
	"extrareq/internal/workload"
)

// This file is the package's measurement entry point: Run for one
// application and RunAll for the five case-study applications, configured
// with functional options. All measurement goes through internal/campaign,
// so every call — resilient or healthy, observed or not — shares one
// worker pool per invocation and can reuse results from the
// content-addressed campaign cache (WithCache).

// Spec names what to measure: a proxy application (Kripke, LULESH, MILC,
// Relearn, or icoFoam) and the p×n grid to run it over. A zero Grid
// selects the app's default grid from the paper's case study.
type Spec struct {
	App  string
	Grid Grid
}

// Result is a measured (and, unless WithoutModels, modeled) campaign.
type Result struct {
	// Campaign holds the raw samples (nil when the campaign failed).
	Campaign *Campaign
	// Requirements are the fitted Table II models; nil with WithoutModels
	// or when the campaign failed.
	Requirements *Requirements
	// Report accounts for retries, quarantine, and surviving coverage.
	// Consult Report.Degraded before trusting the models.
	Report *CampaignReport
	// CacheHit reports that the campaign was served entirely from the
	// cache (WithCache) — a stored campaign entry or a full assembly from
	// stored points — instead of measuring anything.
	CacheHit bool
	// PointsReused / PointsMeasured split the campaign's configurations by
	// assembly path: served from the point cache versus executed by this
	// run. PointsSaved counts grid configurations an adaptive run
	// (WithAdaptiveGrid) never measured at all; it is 0 for fixed grids.
	PointsReused   int
	PointsMeasured int
	PointsSaved    int
	// Adaptive carries the refinement summary of a WithAdaptiveGrid run;
	// nil for fixed-grid campaigns.
	Adaptive *AdaptiveSummary
}

// AdaptiveSummary describes how an adaptive campaign stopped.
type AdaptiveSummary struct {
	// Rounds counts fits over the measured set (0 for a cache hit).
	Rounds int
	// Converged reports the stability rule stopped the run (rather than
	// the point budget).
	Converged bool
	// FullGridPoints is the size of the requested grid the run refined.
	FullGridPoints int
}

// AdaptiveOptions tune WithAdaptiveGrid's refinement loop; the zero value
// selects the documented defaults (batch ≈ grid/8, budget = half the grid,
// 2% improvement threshold, one stable round). Run and RunAll set the
// FitCache field themselves, to the cache of their own final fit, so a
// value a caller puts there is ignored.
type AdaptiveOptions = adaptive.Options

// Option configures Run and RunAll.
type Option func(*runConfig)

type runConfig struct {
	faults    *FaultPlan
	retries   int
	minPoints int
	reg       *MetricsRegistry
	tracer    *Tracer
	cacheDir  string
	remoteURL string
	modelOpts *ModelOptions
	model     bool
	adaptive  *AdaptiveOptions
}

// buildStore resolves the cache options into scheduler Options plus a
// cleanup to run after the scheduler closes. A remote URL alone selects a
// RemoteStore; a remote URL with a cache dir layers the DiskStore over the
// remote as a TieredStore (local reads first, asynchronous write-behind to
// the remote); a cache dir alone keeps the classic DiskStore path.
func (c *runConfig) buildStore() (campaign.Options, func(), error) {
	nop := func() {}
	if c.remoteURL == "" {
		return campaign.Options{Dir: c.cacheDir}, nop, nil
	}
	remote, err := campaign.NewRemoteStore(c.remoteURL, campaign.RemoteOptions{Metrics: c.reg})
	if err != nil {
		return campaign.Options{}, nil, err
	}
	if c.cacheDir == "" {
		return campaign.Options{Store: remote}, nop, nil
	}
	disk, err := campaign.OpenDiskStore(c.cacheDir)
	if err != nil {
		return campaign.Options{}, nil, err
	}
	tiered := campaign.NewTieredStore(disk, remote, campaign.TieredOptions{Metrics: c.reg})
	cleanup := func() {
		// Flush the write-behind queue so a short-lived CLI run publishes
		// its points before exiting, then stop the worker.
		tiered.Sync(context.Background())
		tiered.Close()
	}
	return campaign.Options{Store: tiered}, cleanup, nil
}

func newRunConfig(opts []Option) runConfig {
	cfg := runConfig{model: true}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithFaults injects the fault plan into every simulated run. Run applies
// the plan as given; RunAll derives a per-app seed from it so apps fail
// independently but deterministically.
func WithFaults(plan *FaultPlan) Option {
	return func(c *runConfig) { c.faults = plan }
}

// WithRetries grants each failing configuration up to n extra attempts
// before it is quarantined (default 0).
func WithRetries(n int) Option {
	return func(c *runConfig) { c.retries = n }
}

// WithMinPoints sets the per-axis coverage threshold for degradation
// warnings (default: the paper's five-point rule).
func WithMinPoints(k int) Option {
	return func(c *runConfig) { c.minPoints = k }
}

// WithObservability reports campaign_*, fit_*, and cache_* metrics into
// reg and, when tr is non-nil, traces every simulated run's communication
// and fault events. Either handle may be nil.
func WithObservability(reg *MetricsRegistry, tr *Tracer) Option {
	return func(c *runConfig) {
		c.reg = reg
		c.tracer = tr
	}
}

// WithCache persists finished campaigns — and every measured (p, n) point
// individually — under dir (created if absent) and serves byte-identical
// repeats from it. A campaign that only overlaps a cached one reuses the
// shared points and measures the rest; the directory is safe to share
// between concurrent processes, which then shard overlapping grids
// between them. Corrupt or stale entries degrade to cache misses; entries
// are invalidated wholesale when the cache format version changes.
func WithCache(dir string) Option {
	return func(c *runConfig) { c.cacheDir = dir }
}

// WithRemoteCache points the campaign cache at a peer speaking the
// reqserve point protocol (GET/PUT /v1/points/{key}) at baseURL, so
// machines without a shared filesystem can shard one campaign's points.
// Combined with WithCache(dir) the two tiers layer: reads try the local
// directory first and fill it from the remote, writes land locally and
// are streamed to the remote in the background. Remote failures never
// fail a campaign — a circuit breaker degrades the remote tier to
// miss-on-read / drop-on-write until the peer recovers (visible via the
// store_remote_* metrics of WithObservability's registry).
func WithRemoteCache(baseURL string) Option {
	return func(c *runConfig) { c.remoteURL = baseURL }
}

// WithAdaptiveGrid replaces fixed-grid measurement with model-driven grid
// refinement (internal/adaptive): the run seeds the grid's baseline lines
// (which satisfy the five-point rule exactly when the grid does), fits the
// requirement models, and measures only the configurations whose
// leave-one-out uncertainty — weighted toward the extrapolation corner —
// most improves model confidence, stopping when the winning model strings
// are stable and cross-validation stops improving, or at the point budget
// (default: half the grid). The scheduler, point cache, fault injection,
// and observability layers apply unchanged, and adaptive runs share point
// entries with fixed-grid campaigns of the same spec. Results stay
// byte-identical across repeats and worker counts for a fixed seed.
func WithAdaptiveGrid(o AdaptiveOptions) Option {
	return func(c *runConfig) { c.adaptive = &o }
}

// WithModelOptions configures the Extra-P-style model generator.
func WithModelOptions(mo *ModelOptions) Option {
	return func(c *runConfig) { c.modelOpts = mo }
}

// WithoutModels skips model fitting: Result.Requirements stays nil. Use
// this when only the raw campaign is wanted.
func WithoutModels() Option {
	return func(c *runConfig) { c.model = false }
}

// Run measures one application according to spec and fits its requirement
// models. Faults, retries, observability, caching, and adaptive grids are
// opt-in; WithoutModels skips the fit. On a campaign error the returned
// Result still carries the campaign report (when one was produced) so
// callers can render the partial account.
func Run(ctx context.Context, spec Spec, opts ...Option) (*Result, error) {
	cfg := newRunConfig(opts)
	app, ok := apps.ByName(spec.App)
	if !ok {
		return nil, fmt.Errorf("extrareq: unknown application %q (have %v)", spec.App, apps.Names())
	}
	grid := spec.Grid
	if isZeroGrid(grid) {
		grid = defaultGridFor(app.Name())
	}
	schedOpts, cleanup, err := cfg.buildStore()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	sched, err := campaign.New(schedOpts)
	if err != nil {
		return nil, err
	}
	defer sched.Close()
	fc := modeling.NewFitCache()
	res, err := runRequest(ctx, sched, &cfg, fc, campaign.Request{
		App:       app,
		Grid:      grid,
		Faults:    cfg.faults,
		Retries:   cfg.retries,
		MinPoints: cfg.minPoints,
		Metrics:   cfg.reg,
		Tracer:    cfg.tracer,
	})
	if err != nil {
		return res, err
	}
	if !cfg.model {
		return res, nil
	}
	fits, _, err := workload.FitAllObserved([]*Campaign{res.Campaign}, cfg.modelOpts, 0, fc, cfg.reg)
	if err != nil {
		return res, err
	}
	res.Requirements = fits[0]
	return res, nil
}

// runRequest executes one campaign request through sched — fixed-grid or,
// with WithAdaptiveGrid, model-driven — and converts the outcome into a
// Result (models are fitted by the caller). An adaptive run fits its
// interim models through fc, so the caller's final fit over fc finds the
// last round's fits. On error the Result still carries whatever report was
// produced.
func runRequest(ctx context.Context, sched *campaign.Scheduler, cfg *runConfig, fc *modeling.FitCache, req campaign.Request) (*Result, error) {
	if cfg.adaptive != nil {
		o := *cfg.adaptive
		o.FitCache = fc
		aout, err := adaptive.Run(ctx, sched, req, o)
		if err != nil {
			return &Result{}, err
		}
		return &Result{
			Campaign:       aout.Campaign,
			Report:         aout.Report,
			CacheHit:       aout.CacheHit,
			PointsReused:   aout.PointsReused,
			PointsMeasured: aout.PointsMeasured,
			PointsSaved:    aout.PointsSaved,
			Adaptive: &AdaptiveSummary{
				Rounds:         aout.Rounds,
				Converged:      aout.Converged,
				FullGridPoints: aout.FullGridPoints,
			},
		}, nil
	}
	out, err := sched.Run(ctx, req)
	res := &Result{}
	if out != nil {
		res.Report = out.Report
		res.PointsReused = out.PointsReused
		res.PointsMeasured = out.PointsMeasured
	}
	if err != nil {
		return res, err
	}
	res.Campaign = out.Campaign
	res.CacheHit = out.CacheHit
	return res, nil
}

// RunAll measures and models every case-study application (PaperAppNames
// order) through one shared worker pool and one fit cache, returning the
// per-app results plus the Figure 3 error classes. A fault plan given via
// WithFaults is re-seeded per app (derived from the app name), so apps
// fail independently but deterministically. On error the partial results
// (with their campaign reports) come back alongside it.
func RunAll(ctx context.Context, opts ...Option) ([]*Result, []ErrorClass, error) {
	cfg := newRunConfig(opts)
	all := apps.All()
	schedOpts, cleanup, err := cfg.buildStore()
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	sched, err := campaign.New(schedOpts)
	if err != nil {
		return nil, nil, err
	}
	defer sched.Close()
	reqs := make([]campaign.Request, len(all))
	for i, a := range all {
		reqs[i] = campaign.Request{
			App:       a,
			Grid:      defaultGridFor(a.Name()),
			Faults:    cfg.faults.Derive(appSalt(a.Name())),
			Retries:   cfg.retries,
			MinPoints: cfg.minPoints,
			Metrics:   cfg.reg,
			Tracer:    cfg.tracer,
		}
	}
	// One goroutine per app over the shared scheduler, whose one pool runs
	// every app's configurations; adaptive runs are independent per app,
	// so they refine concurrently while their sub-requests share the pool
	// and point cache.
	fc := modeling.NewFitCache()
	results := make([]*Result, len(all))
	campaigns := make([]*Campaign, len(all))
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runRequest(ctx, sched, &cfg, fc, reqs[i])
		}(i)
	}
	wg.Wait()
	for i := range results {
		campaigns[i] = results[i].Campaign
	}
	for _, err := range errs {
		if err != nil {
			return results, nil, err
		}
	}
	if !cfg.model {
		return results, nil, nil
	}
	fits, classes, err := workload.FitAllObserved(campaigns, cfg.modelOpts, 0, fc, cfg.reg)
	if err != nil {
		return results, nil, err
	}
	for i, f := range fits {
		results[i].Requirements = f
	}
	return results, classes, nil
}

// defaultGridFor resolves an app's default measurement grid. A variable so
// tests can substitute small grids when exercising the RunAll pipeline
// end to end (the paper-scale default grids are too costly under -race).
var defaultGridFor = workload.DefaultGrid

// isZeroGrid reports whether the caller left Spec.Grid entirely unset (as
// opposed to set but invalid, which Grid.Validate rejects with a pointed
// error).
func isZeroGrid(g Grid) bool {
	return len(g.Procs) == 0 && len(g.Ns) == 0 && g.Seed == 0 && g.Repeats == 0
}

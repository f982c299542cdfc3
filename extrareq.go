// Package extrareq reproduces "Lightweight Requirements Engineering for
// Exascale Co-design" (Calotoiu et al., IEEE CLUSTER 2018): automated
// generation of application-centric requirements models r(p, n) — memory
// footprint, floating-point operations, communication volume, memory
// accesses, and stack distance — from small-scale measurements, and their
// use for co-design studies of relative system upgrades and absolute
// exascale designs.
//
// The package is a façade over the building blocks in internal/: the
// measurement substrates (simulated MPI runtime, counters, call-path
// profiler, locality sampler), the Extra-P-style model generator, the five
// proxy applications of the paper's case study, and the co-design engine.
//
// # Quickstart
//
// Run and RunAll are the measurement entry points: Run measures one proxy
// application over a p×n grid and fits the Table II requirement models,
// RunAll does the same for all five case-study applications, with faults,
// retries, observability, campaign caching, and adaptive grids as
// functional options.
//
//	res, err := extrareq.Run(ctx, extrareq.Spec{App: "Kripke"})
//	fmt.Println(res.Requirements.App.Models[extrareq.Flops]) // e.g. "138·n"
//
//	// All five case-study apps, resilient to injected faults, with a
//	// persistent campaign cache:
//	plan, err := extrareq.ParseFaultSpec("seed=7,drop=0.01")
//	results, classes, err := extrareq.RunAll(ctx,
//		extrareq.WithFaults(plan),
//		extrareq.WithRetries(3),
//		extrareq.WithCache(".extrareq-cache"))
//
//	study, err := extrareq.StudyUpgrades(extrareq.PaperApps(), extrareq.DefaultBaseline())
//	fmt.Println(extrareq.RenderTable5(study, extrareq.PaperAppNames()))
package extrareq

import (
	"fmt"

	"extrareq/internal/apps"
	"extrareq/internal/codesign"
	"extrareq/internal/machine"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/obs"
	"extrareq/internal/report"
	"extrareq/internal/simmpi"
	"extrareq/internal/stats"
	"extrareq/internal/workload"
)

// Core type aliases, so callers never need the internal import paths.
type (
	// App is an application's set of requirements models over (p, n).
	App = codesign.App
	// Metric identifies one Table I requirement metric.
	Metric = metrics.Metric
	// Campaign is the raw result of measuring an app over a p×n grid.
	Campaign = workload.Campaign
	// Grid specifies a measurement campaign.
	Grid = workload.Grid
	// Requirements bundles fitted models with their quality diagnostics.
	Requirements = workload.FitResult
	// Skeleton is a system skeleton: process count and memory per process.
	Skeleton = machine.Skeleton
	// System is an absolute system description (Table VI row).
	System = machine.System
	// Upgrade is a relative system upgrade (Table III row).
	Upgrade = machine.Upgrade
	// UpgradeOutcome is one app × upgrade result (Table V cell block).
	UpgradeOutcome = codesign.UpgradeOutcome
	// ExascaleResult is one app row group of Table VII.
	ExascaleResult = codesign.ExascaleResult
	// ErrorClass is one bucket of the Figure 3 error histogram.
	ErrorClass = stats.ErrorClass
	// ModelOptions configures the Extra-P-style model generator.
	ModelOptions = modeling.Options
)

// The Table I metrics.
const (
	MemoryBytes   = metrics.MemoryBytes
	Flops         = metrics.Flops
	CommBytes     = metrics.CommBytes
	LoadsStores   = metrics.LoadsStores
	StackDistance = metrics.StackDistance
)

// DefaultGrid returns the named app's default measurement grid from the
// paper's case study (what Run uses when Spec.Grid is zero).
func DefaultGrid(appName string) Grid { return workload.DefaultGrid(appName) }

// Fault injection and resilient measurement (§II-C robustness: campaigns
// on unreliable systems must degrade loudly, never silently).

type (
	// FaultPlan is a seeded, deterministic fault-injection plan for the
	// simulated MPI runtime: rank kills, message drops/delays/duplicates,
	// and bounded counter perturbation.
	FaultPlan = simmpi.FaultPlan
	// RankError reports the death of one simulated rank (injected or an
	// application panic), with its event count and, for panics, the stack.
	RankError = simmpi.RankError
	// ResilientRunner measures a campaign with per-configuration retries,
	// quarantine, and graceful degradation.
	ResilientRunner = workload.ResilientRunner
	// CampaignReport accounts for a resilient campaign: retries, losses,
	// and five-point-rule coverage of the surviving grid.
	CampaignReport = workload.CampaignReport
	// AxisWarning flags a parameter axis below the five-point rule.
	AxisWarning = workload.AxisWarning
)

// NewFaultPlan returns an inactive plan with the given seed; set fault
// fields (Kill, Drop, ...) to activate it.
func NewFaultPlan(seed int64) *FaultPlan { return simmpi.NewFaultPlan(seed) }

// ParseFaultSpec parses a command-line fault specification such as
// "seed=7,kill=0.3,drop=0.01" (see simmpi.ParseFaultSpec for the grammar).
func ParseFaultSpec(spec string) (*FaultPlan, error) { return simmpi.ParseFaultSpec(spec) }

// Observability (§II-C at scale: a campaign must explain itself — what ran,
// what failed, and where the time went).

type (
	// MetricsRegistry is a lock-cheap registry of named counters, gauges,
	// and bounded histograms; instruments are atomics on the hot path.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry, serializable
	// as JSON.
	MetricsSnapshot = obs.Snapshot
	// Tracer records per-rank simmpi events (send/recv/collective/fault/
	// cancel) into bounded ring buffers, dumpable as JSONL or Chrome
	// trace_event format.
	Tracer = obs.Tracer
	// TraceEvent is one recorded runtime event.
	TraceEvent = obs.Event
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer returns a tracer whose per-rank rings keep the most recent
// eventsPerRank events (<= 0 selects obs.DefaultEventsPerRank). Exact
// byte/message totals are maintained even after a ring wraps.
func NewTracer(eventsPerRank int) *Tracer { return obs.NewTracer(eventsPerRank) }

// WriteTraceFile dumps the tracer to path: a ".json" suffix selects the
// Chrome trace_event format, anything else the JSONL event stream with
// per-ring summary records.
func WriteTraceFile(path string, t *Tracer) error { return obs.WriteTraceFile(path, t) }

// WriteMetricsFile dumps a registry snapshot to path as indented JSON.
func WriteMetricsFile(path string, r *MetricsRegistry) error { return obs.WriteMetricsFile(path, r) }

// StartPprofServer serves the net/http/pprof endpoints on addr (":0"
// picks a free port) and returns the bound address.
func StartPprofServer(addr string) (string, error) { return obs.StartPprofServer(addr) }

// RenderCampaignSummary renders the observability summary of a measured
// campaign: per-app resilience accounting plus the registry's counters and
// histograms.
func RenderCampaignSummary(reports []*CampaignReport, snap MetricsSnapshot) string {
	return report.CampaignSummary(reports, snap)
}

// appSalt hashes an app name into a fault-seed salt (FNV-1a).
func appSalt(name string) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range []byte(name) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// FitCache deduplicates model fits of identical measurement series (see
// AdaptiveOptions.FitCache); a cache never changes a result.
type FitCache = modeling.FitCache

// NewFitCache returns an empty fit cache.
func NewFitCache() *FitCache { return modeling.NewFitCache() }

// PaperApps returns the paper's published Table II models for the five
// case-study applications.
func PaperApps() []App { return codesign.PaperApps() }

// PaperAppNames returns the app names in the paper's Table II order.
func PaperAppNames() []string {
	return []string{"Kripke", "LULESH", "MILC", "Relearn", "icoFoam"}
}

// DefaultBaseline is the documented baseline skeleton for upgrade studies.
func DefaultBaseline() Skeleton { return codesign.DefaultBaseline() }

// Upgrades returns the Table III upgrade scenarios.
func Upgrades() []Upgrade { return machine.Upgrades() }

// StrawMen returns the Table VI exascale straw-man systems.
func StrawMen() []System { return machine.StrawMen() }

// StudyUpgrades evaluates every Table III upgrade for every app at the
// given baseline (the Table V study).
func StudyUpgrades(apps []App, base Skeleton) (map[string][]UpgradeOutcome, error) {
	return codesign.UpgradeStudy(apps, base)
}

// StudyExascale maps every app onto the Table VI straw-men (the Table VII
// study).
func StudyExascale(apps []App) ([]ExascaleResult, error) {
	return codesign.ExascaleStudyAll(apps)
}

// Warnings computes the Table II bottleneck flags for an app.
func Warnings(app App, ref Skeleton) (map[Metric]bool, error) {
	return codesign.Warnings(app, ref)
}

// Rendering helpers (aligned text, matching the paper's presentation).

// RenderTable1 renders the metric catalogue.
func RenderTable1() string { return report.Table1() }

// RenderTable2 renders per-process requirements models with warning flags.
func RenderTable2(apps []App, ref Skeleton) (string, error) { return report.Table2(apps, ref) }

// RenderFigure3 renders the relative-error histogram.
func RenderFigure3(classes []ErrorClass) string { return report.Figure3(classes) }

// RenderTable3 renders the upgrade scenarios.
func RenderTable3() string { return report.Table3() }

// RenderTable4 renders the step-by-step upgrade walkthrough for one app.
func RenderTable4(app App, base Skeleton, up Upgrade) (string, error) {
	steps, err := codesign.Walkthrough(app, base, up)
	if err != nil {
		return "", err
	}
	return report.Table4(app.Name, up, steps), nil
}

// RenderTable5 renders the upgrade comparison.
func RenderTable5(study map[string][]UpgradeOutcome, appOrder []string) string {
	return report.Table5(study, appOrder)
}

// RenderTable6 renders the straw-man systems.
func RenderTable6() string { return report.Table6() }

// RenderTable7 renders the exascale study.
func RenderTable7(results []ExascaleResult) string { return report.Table7(results) }

// Extensions beyond the paper's headline tables (see EXPERIMENTS.md):
// rated wall-time bounds (§III-B) and space sharing (§II-E).

type (
	// Rates are per-processor service rates for the rated study.
	Rates = codesign.Rates
	// RatedOutcome extends a Table VII cell with per-resource times.
	RatedOutcome = codesign.RatedOutcome
	// ShareOutcome is one app's slice of a space-shared machine.
	ShareOutcome = codesign.ShareOutcome
)

// DefaultRates derives plausible per-processor network/memory rates from a
// floating-point rate.
func DefaultRates(flopsPerProcessor float64) Rates {
	return codesign.DefaultRates(flopsPerProcessor)
}

// StudyRated reruns the Table VII benchmark analysis with per-resource
// rates for one app on the straw-man systems.
func StudyRated(app App, ratesFor func(System) Rates) ([]RatedOutcome, error) {
	return codesign.RatedExascaleStudy(app, machine.StrawMen(), ratesFor)
}

// StudyShared partitions a skeleton between apps in space (§II-E).
func StudyShared(apps []App, base Skeleton, fractions []float64) ([]ShareOutcome, error) {
	return codesign.ShareSystem(apps, base, fractions)
}

// RenderRated renders a rated study.
func RenderRated(appName string, outcomes []RatedOutcome) string {
	return report.RatedTable(appName, outcomes)
}

// RenderShared renders a space-sharing study.
func RenderShared(outcomes []ShareOutcome) string { return report.ShareTable(outcomes) }

// Per-call-path communication modeling (§II-B: requirements for
// communication are obtained at the granularity of function calls).

type (
	// PathCampaign is a measurement campaign with per-call-path
	// communication attribution.
	PathCampaign = workload.PathCampaign
	// HotSpot is one call path with its fitted model and an extrapolated
	// per-process volume.
	HotSpot = workload.HotSpot
)

// MeasurePaths runs the named app over its default grid, attributing
// communication volume to call paths.
func MeasurePaths(appName string) (*PathCampaign, error) {
	app, ok := apps.ByName(appName)
	if !ok {
		return nil, fmt.Errorf("extrareq: unknown application %q (have %v)", appName, apps.Names())
	}
	return workload.RunWithPaths(app, workload.DefaultGrid(appName))
}

// ModelCommPath fits the scaling model of one call path's communication.
func ModelCommPath(c *PathCampaign, path string) (*pmnfModelInfo, error) {
	return workload.FitCommPath(c, path, nil)
}

// pmnfModelInfo is re-exported under a neutral name to keep the façade
// import surface flat.
type pmnfModelInfo = modeling.ModelInfo

// CommHotSpots ranks the MPI call paths of a campaign by extrapolated
// per-process volume at (p, n).
func CommHotSpots(c *PathCampaign, p, n float64) ([]HotSpot, error) {
	return workload.CommHotSpots(c, p, n, nil)
}

// ScalingBug is a program location whose requirement grows
// super-logarithmically with the process count.
type ScalingBug = workload.ScalingBug

// FindScalingBugs hunts for scaling bugs in a path campaign: it fits a
// model per program location for the given metric ("flop", "loads",
// "stores", or "comm") and returns the locations with super-logarithmic
// p-growth, ranked by inflation between the measured and target scales.
func FindScalingBugs(c *PathCampaign, metric string, targetP, targetN float64) ([]ScalingBug, error) {
	return workload.FindScalingBugs(c, metric, targetP, targetN, nil)
}

// PortAnalysis is the §II-E requirement-balance shift analysis.
type PortAnalysis = codesign.PortAnalysis

// StudyPort evaluates how the app's requirement balances shift when ported
// from skeleton a to skeleton b.
func StudyPort(app App, a, b Skeleton) (*PortAnalysis, error) {
	return codesign.AnalyzePort(app, a, b)
}

// RenderPort renders a port analysis.
func RenderPort(p *PortAnalysis) string { return report.PortTable(p) }

// Design is the complete co-design assessment of one app on one system.
type Design = codesign.Design

// Assess runs the full §II-E workflow for app on sys: operating point,
// requirement values, bottleneck flags, rated service times, and the
// upgrade comparison with a recommendation.
func Assess(app App, sys System, rates Rates) (*Design, error) {
	return codesign.Assess(app, sys, rates)
}

// RenderDesign renders a design assessment.
func RenderDesign(d *Design) string { return report.DesignTable(d) }

// ParseApp builds an App from an inline "metric=expression" spec over
// (p, n), e.g. "bytes_used=1e3*n; flop=1e8*n^1.5*p^0.5". See
// codesign.ParseApp for the accepted grammar.
func ParseApp(name, spec string) (App, error) { return codesign.ParseApp(name, spec) }

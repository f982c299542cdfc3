// Package cli holds the measurement flag plumbing shared by cmd/repro and
// cmd/reqgen: the fault/resilience flags (-faults, -retries, -min-points),
// the observability flags (-trace, -metrics, -pprof), and the campaign
// cache flags (-cache-dir, -cache-remote, -cache-stats). Each command
// registers the shared set next to its own flags, then turns them into
// the option slice for extrareq.Run/RunAll with Setup and flushes
// trace/metrics/cache output with Finish.
package cli

import (
	"flag"
	"fmt"
	"io"

	"extrareq"
)

// Flags is the shared command-line option set. Zero value + Register +
// fs.Parse + Setup is the whole lifecycle.
type Flags struct {
	Faults      string
	Retries     int
	MinPoints   int
	Trace       string
	Metrics     string
	Pprof       string
	CacheDir    string
	CacheRemote string
	CacheStats  bool

	Adaptive        bool
	AdaptiveBatch   int
	AdaptiveMax     int
	AdaptiveImprove float64

	plan   *extrareq.FaultPlan
	reg    *extrareq.MetricsRegistry
	tracer *extrareq.Tracer
}

// Register installs the shared flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Faults, "faults", "",
		"fault-injection spec, e.g. 'seed=7,kill=0.3,drop=0.001' (see extrareq.ParseFaultSpec)")
	fs.IntVar(&f.Retries, "retries", 2,
		"per-configuration retry budget for failed measurement runs")
	fs.IntVar(&f.MinPoints, "min-points", 0,
		"per-axis coverage threshold for degradation warnings (0 = the paper's five-point rule)")
	fs.StringVar(&f.Trace, "trace", "",
		"dump per-rank runtime events to this file (.json = Chrome trace_event, else JSONL)")
	fs.StringVar(&f.Metrics, "metrics", "",
		"dump campaign metrics to this file as JSON and print a campaign summary to stderr")
	fs.StringVar(&f.Pprof, "pprof", "",
		"serve net/http/pprof on this address (e.g. localhost:6060 or :0)")
	fs.StringVar(&f.CacheDir, "cache-dir", "",
		"persist measured campaigns and per-point results in this directory and serve "+
			"byte-identical repeats from it; safe to share between concurrent processes, "+
			"which then split overlapping grids between them")
	fs.StringVar(&f.CacheRemote, "cache-remote", "",
		"base URL of a peer speaking the reqserve point protocol (GET/PUT /v1/points/{key}); "+
			"machines without a shared filesystem shard one campaign's points through it, "+
			"and with -cache-dir the two tiers layer (local reads first, background remote writes)")
	fs.BoolVar(&f.CacheStats, "cache-stats", false,
		"print campaign cache hit/miss/byte counters to stderr at exit")
	fs.BoolVar(&f.Adaptive, "adaptive", false,
		"adaptive campaigns: treat the grid as a candidate space and measure only the "+
			"configurations the models are least sure about, stopping when the fitted "+
			"requirement models stabilize (typically 2-3x fewer points than the full grid)")
	fs.IntVar(&f.AdaptiveBatch, "adaptive-batch", 0,
		"configurations measured per adaptive refinement round (0 = 1/8 of the grid)")
	fs.IntVar(&f.AdaptiveMax, "adaptive-max", 0,
		"hard budget of configurations an adaptive campaign may measure (0 = half the grid)")
	fs.Float64Var(&f.AdaptiveImprove, "adaptive-improve", 0,
		"relative cross-validation improvement below which an adaptive campaign is "+
			"considered converged (0 = the 0.02 default)")
}

// Setup validates the shared flags, starts the pprof server when asked,
// allocates the observability handles, and returns the option slice for
// extrareq.Run/RunAll. prog prefixes the status lines written to errw.
func (f *Flags) Setup(errw io.Writer, prog string) ([]extrareq.Option, error) {
	if f.Pprof != "" {
		addr, err := extrareq.StartPprofServer(f.Pprof)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(errw, "%s: pprof server on http://%s/debug/pprof/\n", prog, addr)
	}
	if f.Faults != "" {
		plan, err := extrareq.ParseFaultSpec(f.Faults)
		if err != nil {
			return nil, err
		}
		f.plan = plan
	}
	// -cache-stats needs a registry even without -metrics: the cache
	// counters live there.
	if f.Metrics != "" || f.CacheStats {
		f.reg = extrareq.NewMetricsRegistry()
	}
	if f.Trace != "" {
		f.tracer = extrareq.NewTracer(0)
	}

	opts := []extrareq.Option{
		extrareq.WithRetries(f.Retries),
		extrareq.WithMinPoints(f.MinPoints),
	}
	if f.plan != nil {
		opts = append(opts, extrareq.WithFaults(f.plan))
	}
	if f.reg != nil || f.tracer != nil {
		opts = append(opts, extrareq.WithObservability(f.reg, f.tracer))
	}
	if f.CacheDir != "" {
		opts = append(opts, extrareq.WithCache(f.CacheDir))
	}
	if f.CacheRemote != "" {
		opts = append(opts, extrareq.WithRemoteCache(f.CacheRemote))
	}
	if f.Adaptive {
		opts = append(opts, extrareq.WithAdaptiveGrid(extrareq.AdaptiveOptions{
			BatchSize:   f.AdaptiveBatch,
			MaxPoints:   f.AdaptiveMax,
			Improvement: f.AdaptiveImprove,
		}))
	} else if f.AdaptiveBatch != 0 || f.AdaptiveMax != 0 || f.AdaptiveImprove != 0 {
		return nil, fmt.Errorf("-adaptive-batch/-adaptive-max/-adaptive-improve need -adaptive")
	}
	return opts, nil
}

// ReportAdaptive prints one line of adaptive-campaign accounting per result
// (points measured versus the full grid, and whether the models converged
// or the point budget stopped the run, or that the run was served from its
// campaign entry, which does not record why it stopped). Silent for
// fixed-grid results.
func (f *Flags) ReportAdaptive(errw io.Writer, prog string, results []*extrareq.Result) {
	for _, r := range results {
		if r == nil || r.Adaptive == nil {
			continue
		}
		app := ""
		if r.Campaign != nil && r.Campaign.App != "" {
			app = " " + r.Campaign.App
		}
		stop := "converged"
		if !r.Adaptive.Converged {
			stop = "stopped on point budget"
		}
		stop += fmt.Sprintf(" after %d rounds", r.Adaptive.Rounds)
		if r.Adaptive.Rounds == 0 {
			stop = "served from its campaign entry"
		}
		fmt.Fprintf(errw, "%s:%s adaptive campaign %s: %d of %d grid points measured (%d reused, %d saved)\n",
			prog, app, stop, r.PointsMeasured, r.Adaptive.FullGridPoints, r.PointsReused, r.PointsSaved)
	}
}

// Plan returns the parsed fault plan (nil without -faults). Valid after
// Setup.
func (f *Flags) Plan() *extrareq.FaultPlan { return f.plan }

// Registry returns the metrics registry (nil unless -metrics or
// -cache-stats). Valid after Setup.
func (f *Flags) Registry() *extrareq.MetricsRegistry { return f.reg }

// Tracer returns the event tracer (nil without -trace). Valid after Setup.
func (f *Flags) Tracer() *extrareq.Tracer { return f.tracer }

// Observing reports whether any instrumentation or fault flag is set, for
// commands that gate other flags on it.
func (f *Flags) Observing() bool {
	return f.Trace != "" || f.Metrics != "" || f.CacheStats
}

// ReportCampaigns renders each campaign report to errw: all of them when
// faults were injected, otherwise only the degraded ones (a healthy
// campaign that lost nothing has nothing to say).
func (f *Flags) ReportCampaigns(errw io.Writer, reports []*extrareq.CampaignReport) {
	for _, r := range reports {
		if r != nil && (f.plan != nil || r.Degraded()) {
			fmt.Fprint(errw, r.Render())
		}
	}
}

// Finish flushes the per-run outputs: the event trace, the metrics
// snapshot with its campaign summary, and the cache counters. Call it once
// after all measurement is done.
func (f *Flags) Finish(errw io.Writer, prog string, reports []*extrareq.CampaignReport) error {
	if f.tracer != nil {
		if err := extrareq.WriteTraceFile(f.Trace, f.tracer); err != nil {
			return err
		}
		fmt.Fprintf(errw, "%s: wrote event trace to %s\n", prog, f.Trace)
	}
	if f.reg != nil && f.Metrics != "" {
		if err := extrareq.WriteMetricsFile(f.Metrics, f.reg); err != nil {
			return err
		}
		fmt.Fprint(errw, extrareq.RenderCampaignSummary(reports, f.reg.Snapshot()))
		fmt.Fprintf(errw, "%s: wrote metrics to %s\n", prog, f.Metrics)
	}
	if f.CacheStats && f.reg != nil {
		c := f.reg.Snapshot().Counters
		fmt.Fprintf(errw, "%s: campaign cache: %d hits, %d misses, %d point hits, %d point misses, %d bytes on disk traffic\n",
			prog, c["cache_hit"], c["cache_miss"], c["cache_point_hit"], c["cache_point_miss"], c["cache_bytes"])
	}
	return nil
}

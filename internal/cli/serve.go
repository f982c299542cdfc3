package cli

import (
	"flag"
	"fmt"
	"io"
	"time"

	"extrareq"
	"extrareq/internal/campaign"
	"extrareq/internal/obs"
	"extrareq/internal/serve"
)

// ServeFlags is the option set of cmd/reqserve: the listen address, the
// scheduler sizing, and the admission/drain knobs of internal/serve. Zero
// value + Register + fs.Parse + the option constructors is the whole
// lifecycle.
type ServeFlags struct {
	Addr           string
	Workers        int
	CacheDir       string
	CacheRemote    string
	Queue          int
	TenantRate     float64
	TenantBurst    int
	RequestTimeout time.Duration
	AsyncTimeout   time.Duration
	DrainTimeout   time.Duration
	Pprof          string
}

// Register installs the reqserve flags on fs.
func (f *ServeFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Addr, "addr", "127.0.0.1:8080",
		"TCP listen address (use :0 for an ephemeral port; the chosen address is logged)")
	fs.IntVar(&f.Workers, "workers", 0,
		"scheduler worker pool size shared by all campaigns (0 = GOMAXPROCS)")
	fs.StringVar(&f.CacheDir, "cache-dir", "",
		"persist measured campaigns and per-point results in this directory and serve "+
			"byte-identical repeats from it; point a fleet of reqserve instances at one "+
			"shared directory and they shard overlapping grids between them")
	fs.StringVar(&f.CacheRemote, "cache-remote", "",
		"base URL of a peer reqserve whose /v1/points endpoints back the point cache; "+
			"with -cache-dir the two tiers layer (local reads first, background remote writes), "+
			"so fleets without a shared filesystem shard overlapping grids between instances")
	fs.IntVar(&f.Queue, "queue", serve.DefaultQueue,
		"max admitted unfinished campaigns; further distinct submissions are shed with 503")
	fs.Float64Var(&f.TenantRate, "tenant-rate", 0,
		"per-tenant sustained admission rate in new campaigns/second (0 = no rate limiting)")
	fs.IntVar(&f.TenantBurst, "tenant-burst", serve.DefaultTenantBurst,
		"per-tenant token-bucket burst capacity")
	fs.DurationVar(&f.RequestTimeout, "request-timeout", serve.DefaultRequestTimeout,
		"deadline applied to synchronous submissions that bring none of their own")
	fs.DurationVar(&f.AsyncTimeout, "async-timeout", serve.DefaultAsyncTimeout,
		"execution bound for fire-and-forget (wait=false) submissions")
	fs.DurationVar(&f.DrainTimeout, "drain-timeout", serve.DefaultDrainTimeout,
		"how long SIGTERM drain waits for in-flight campaigns before cancelling them")
	fs.StringVar(&f.Pprof, "pprof", "",
		"serve net/http/pprof on this address (e.g. localhost:6060 or :0)")
}

// Setup starts the pprof sidecar when asked and validates the flag values.
// prog prefixes the status lines written to errw.
func (f *ServeFlags) Setup(errw io.Writer, prog string) error {
	if f.Queue < 1 {
		return fmt.Errorf("-queue must be at least 1, got %d", f.Queue)
	}
	if f.TenantRate < 0 {
		return fmt.Errorf("-tenant-rate must be >= 0, got %v", f.TenantRate)
	}
	if f.Pprof != "" {
		addr, err := extrareq.StartPprofServer(f.Pprof)
		if err != nil {
			return err
		}
		fmt.Fprintf(errw, "%s: pprof server on http://%s/debug/pprof/\n", prog, addr)
	}
	return nil
}

// SchedulerOptions builds the campaign scheduler configuration, including
// the persistence tier the cache flags select (campaign.StoreOptions):
// disk (-cache-dir), remote (-cache-remote), tiered local-over-remote
// (both), or memory-only (neither). reg receives the store_remote_*
// instruments and may be nil. The returned cleanup stops the tiered
// write-behind worker; call it after the scheduler has closed (it is a
// no-op for the other store shapes). It does not flush the queue: the
// server's drain already has.
func (f *ServeFlags) SchedulerOptions(reg *obs.Registry, logf func(format string, args ...any)) (campaign.Options, func(), error) {
	opts, tiered, err := campaign.StoreOptions(f.CacheDir, f.CacheRemote, reg, logf)
	if err != nil {
		return campaign.Options{}, nil, err
	}
	opts.Workers, opts.Logf = f.Workers, logf
	if tiered == nil {
		return opts, func() {}, nil
	}
	return opts, tiered.Close, nil
}

// ServerOptions builds the serve.Options around a runner and registry.
func (f *ServeFlags) ServerOptions(runner serve.Runner, reg *obs.Registry, logf func(format string, args ...any)) serve.Options {
	return serve.Options{
		Runner:         runner,
		Queue:          f.Queue,
		TenantRate:     f.TenantRate,
		TenantBurst:    f.TenantBurst,
		RequestTimeout: f.RequestTimeout,
		AsyncTimeout:   f.AsyncTimeout,
		DrainTimeout:   f.DrainTimeout,
		Metrics:        reg,
		Logf:           logf,
	}
}

package workload

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"extrareq/internal/apps"
	"extrareq/internal/locality"
	"extrareq/internal/obs"
	"extrareq/internal/simmpi"
)

// ResilientRunner measures a campaign on an unreliable system: runs that
// fail (injected or real rank deaths, hangs resolved by the watchdog,
// application errors) are retried with exponential backoff under a bounded
// retry budget, configurations that keep failing are quarantined instead of
// aborting the campaign, and the surviving grid is checked against the
// paper's five-point rule so a degraded campaign can never silently produce
// an under-constrained model. Every decision is deterministic: the fault
// seed of each run is derived from (plan seed, p, n, attempt, repeat), so
// the same plan yields byte-identical campaign outcomes across runs and
// worker counts.
type ResilientRunner struct {
	// App is the application to measure.
	App apps.App
	// Faults is the base fault plan injected into every run; each
	// (configuration, attempt, repeat) derives its own seed from it. nil
	// measures a healthy system (retries then only guard against real
	// failures).
	Faults *simmpi.FaultPlan
	// Retries is the per-configuration retry budget: how many extra
	// attempts a failing configuration gets after its first. Negative
	// counts as 0.
	Retries int
	// Backoff is the first retry's backoff; it doubles per attempt, capped
	// at maxBackoff. 0 means DefaultBackoff.
	Backoff time.Duration
	// RunTimeout is the per-run watchdog. 0 selects DefaultRunTimeout when
	// the plan drops messages (message loss turns into a hang, which must
	// fail fast) and the simmpi default otherwise — kills self-cancel and
	// need no short watchdog, and shortening it for them would let a slow
	// healthy run time out spuriously under CPU oversubscription, making
	// attempt counts scheduling-dependent.
	RunTimeout time.Duration
	// MinPoints is the per-axis coverage threshold for degradation
	// warnings. 0 means FivePointRule.
	MinPoints int
	// Workers bounds the configurations measured concurrently (<= 0
	// selects GOMAXPROCS). Ignored when Exec is set.
	Workers int
	// Exec, when non-nil, replaces the runner's internal worker pool: the
	// campaign's configurations are handed to it as independent tasks.
	// Campaign schedulers use this to fan many campaigns through one
	// shared pool. Results are byte-identical either way — each task
	// writes only its own slot and the runner's seeds do not depend on
	// scheduling.
	Exec ExecFunc
	// Sleep replaces time.Sleep for backoff waits (test hook). nil uses
	// time.Sleep.
	Sleep func(time.Duration)
	// Metrics receives the campaign's observability counters (see the
	// campaign_* names in DESIGN.md §6c) and the per-run latency
	// histogram. nil disables metric collection.
	Metrics *obs.Registry
	// Tracer records the per-rank runtime events of every attempt; runs
	// are tagged "app/p=../n=../attempt=../rep=..". nil disables tracing.
	Tracer *obs.Tracer
	// Progress, when non-nil, is called after each grid configuration
	// finishes (recovered or quarantined alike) with the count of finished
	// configurations and the grid total. Calls may arrive from concurrent
	// workers but done is unique per call and reaches total exactly once;
	// servers use this to answer progress polls for long campaigns. The
	// callback runs on the measurement path, so it must be cheap and must
	// not block. Configurations supplied by Prefill are counted as
	// instantly done: one leading Progress call covers all of them before
	// any measurement starts.
	Progress func(done, total int)
	// Prefill, when non-nil, is consulted once per grid configuration
	// before any measurement, under the context Run was given (a remote
	// point store turns each consult into an HTTP request, which must
	// inherit the campaign's deadline). Returning ok=true supplies that
	// configuration's sample and outcome without running anything — the
	// point-level campaign cache uses this to measure only the points a
	// previous campaign did not already cover. Prefilled results must be
	// what a fresh measurement would have produced (the runner trusts them
	// verbatim when assembling the campaign and report). Prefill is called
	// serially from Run, in grid (p-major, n-minor) order.
	Prefill func(ctx context.Context, p, n int) (Sample, ConfigOutcome, bool)
	// OnConfig, when non-nil, receives every freshly measured
	// configuration's result the moment it completes (prefilled
	// configurations are not re-announced), under the context Run was
	// given. Calls may arrive concurrently from workers; the point cache
	// uses this to publish per-point entries while the campaign is still
	// running, so other processes sharing the store can reuse them
	// immediately.
	OnConfig func(ctx context.Context, s Sample, out ConfigOutcome)
}

// Resilience defaults.
const (
	// DefaultBackoff is the first retry's backoff.
	DefaultBackoff = 10 * time.Millisecond
	// DefaultRunTimeout bounds one measurement run under a message-drop
	// plan: a run hung by an injected drop fails after this long instead of
	// stalling the campaign for the simmpi default watchdog.
	DefaultRunTimeout = 5 * time.Second
	// maxBackoff caps the exponential backoff growth.
	maxBackoff = time.Second
)

// ConfigOutcome records the measurement history of one (p, n)
// configuration.
type ConfigOutcome struct {
	P int `json:"p"`
	N int `json:"n"`
	// Attempts is the number of runs made (1 for a clean first attempt).
	Attempts int `json:"attempts"`
	// Quarantined marks a configuration lost after exhausting the retry
	// budget; its sample is excluded from the campaign.
	Quarantined bool `json:"quarantined,omitempty"`
	// Errors holds one message per failed attempt.
	Errors []string `json:"errors,omitempty"`
}

// CampaignReport is the structured account of a resilient campaign: what
// was retried, what was lost, and whether the surviving grid still
// satisfies the paper's five-point rule. Callers must consult Degraded
// before trusting models fitted from the campaign.
type CampaignReport struct {
	App string `json:"app"`
	// Plan is the base fault plan in ParseFaultSpec grammar ("" = none).
	Plan string `json:"plan,omitempty"`
	// Configs is the number of grid configurations.
	Configs int `json:"configs"`
	// Recovered counts configurations that failed at least once and then
	// succeeded within the retry budget.
	Recovered int `json:"recovered"`
	// ExtraRuns counts the failed runs that were retried or quarantined.
	ExtraRuns int `json:"extra_runs"`
	// Quarantined lists the lost configurations in campaign (p-major,
	// n-minor) order.
	Quarantined []ConfigOutcome `json:"quarantined,omitempty"`
	// Outcomes holds every configuration's history in campaign order.
	Outcomes []ConfigOutcome `json:"outcomes"`
	// AxisWarnings flags parameter axes whose surviving coverage fell
	// below the five-point rule (§II-C).
	AxisWarnings []AxisWarning `json:"axis_warnings,omitempty"`
}

// Degraded reports whether the campaign lost configurations or axis
// coverage, i.e. whether a fit from it is weaker than the grid promised.
func (r *CampaignReport) Degraded() bool {
	return len(r.Quarantined) > 0 || len(r.AxisWarnings) > 0
}

// Clone returns a deep copy of r that shares no slice with it, keeping
// nil and empty slices apart like Campaign.Clone.
func (r *CampaignReport) Clone() *CampaignReport {
	if r == nil {
		return nil
	}
	cp := *r
	cp.Quarantined = cloneOutcomes(r.Quarantined)
	cp.Outcomes = cloneOutcomes(r.Outcomes)
	cp.AxisWarnings = slices.Clone(r.AxisWarnings)
	return &cp
}

func cloneOutcomes(outs []ConfigOutcome) []ConfigOutcome {
	outs = slices.Clone(outs)
	for i := range outs {
		outs[i].Errors = slices.Clone(outs[i].Errors)
	}
	return outs
}

// Render formats the report for humans (deterministic output).
func (r *CampaignReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign report: %s over %d configurations", r.App, r.Configs)
	if r.Plan != "" {
		fmt.Fprintf(&b, " (faults: %s)", r.Plan)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  recovered: %d configuration(s) after retries (%d extra run(s))\n", r.Recovered, r.ExtraRuns)
	if len(r.Quarantined) > 0 {
		fmt.Fprintf(&b, "  quarantined: %d configuration(s)\n", len(r.Quarantined))
		for _, q := range r.Quarantined {
			last := "unknown error"
			if len(q.Errors) > 0 {
				last = q.Errors[len(q.Errors)-1]
			}
			fmt.Fprintf(&b, "    p=%d n=%d: %d attempt(s), last error: %s\n", q.P, q.N, q.Attempts, last)
		}
	}
	for _, w := range r.AxisWarnings {
		fmt.Fprintf(&b, "  warning: %s\n", w)
	}
	if r.Degraded() {
		b.WriteString("  verdict: DEGRADED fit — treat the models below as weakly constrained\n")
	} else {
		b.WriteString("  verdict: full fit\n")
	}
	return b.String()
}

// The campaign_* metric names a ResilientRunner reports under (documented
// in DESIGN.md §6c; rendered by report.CampaignSummary).
const (
	// MetricRuns counts simulated runs executed (attempts × repeats).
	MetricRuns = "campaign_runs_total"
	// MetricAttempts counts per-configuration measurement attempts.
	MetricAttempts = "campaign_attempts_total"
	// MetricRetries counts failed measurement attempts (each one was
	// either retried or, on budget exhaustion, ended in quarantine).
	MetricRetries = "campaign_retries_total"
	// MetricRecovered counts configurations that succeeded after failing.
	MetricRecovered = "campaign_recovered_total"
	// MetricQuarantined counts configurations lost to the retry budget.
	MetricQuarantined = "campaign_quarantined_total"
	// MetricRunSeconds is the per-run wall-time histogram.
	MetricRunSeconds = "campaign_run_seconds"
)

// RunSecondsEdges is the bucket layout of MetricRunSeconds: exponential
// from 100µs to ~26s, bracketing everything from a small healthy run to a
// watchdog-cancelled hang.
func RunSecondsEdges() []float64 { return obs.ExpEdges(1e-4, 4, 10) }

// campaignMetrics caches the resolved instruments of one campaign so the
// measurement hot path touches only atomics, never the registry mutex.
type campaignMetrics struct {
	runs, attempts, retries, recovered, quarantined *obs.Counter
	runSeconds                                      *obs.Histogram
}

func newCampaignMetrics(r *obs.Registry) *campaignMetrics {
	if r == nil {
		return nil
	}
	return &campaignMetrics{
		runs:        r.Counter(MetricRuns),
		attempts:    r.Counter(MetricAttempts),
		retries:     r.Counter(MetricRetries),
		recovered:   r.Counter(MetricRecovered),
		quarantined: r.Counter(MetricQuarantined),
		runSeconds:  r.Histogram(MetricRunSeconds, RunSecondsEdges()),
	}
}

// configSalt mixes a configuration's identity into a fault-seed salt, so
// every (configuration, attempt, repeat) draws independent faults.
func configSalt(p, n, attempt, repeat int) uint64 {
	return uint64(p)*0x9e3779b97f4a7c15 ^
		uint64(n)*0xbf58476d1ce4e5b9 ^
		uint64(attempt)*0x94d049bb133111eb ^
		uint64(repeat)*0x2545f4914f6cdd1d
}

func (r *ResilientRunner) sleep(d time.Duration) {
	if r.Sleep != nil {
		r.Sleep(d)
		return
	}
	time.Sleep(d)
}

func (r *ResilientRunner) runTimeout() time.Duration {
	if r.RunTimeout != 0 {
		return r.RunTimeout
	}
	if r.Faults.Active() && r.Faults.Drop > 0 {
		return DefaultRunTimeout
	}
	return 0
}

// measureOnce executes every repeat of one configuration with the
// attempt's derived fault seeds and aggregates the per-run values into
// one sample (their mean, plus the runs themselves when the grid asks for
// repeats).
func (r *ResilientRunner) measureOnce(grid Grid, p, n, attempt int, stackDistance float64, cm *campaignMetrics) (Sample, error) {
	repeats := grid.Repeats
	if repeats < 1 {
		repeats = 1
	}
	s := Sample{P: p, N: n, Values: map[string]float64{}}
	for rep := 0; rep < repeats; rep++ {
		var plan *simmpi.FaultPlan
		if r.Faults.Active() {
			plan = r.Faults.Derive(configSalt(p, n, attempt, rep))
		}
		cfg := apps.Config{
			Procs:   p,
			N:       n,
			Seed:    grid.Seed + int64(rep)*1_000_003,
			Faults:  plan,
			Timeout: r.runTimeout(),
		}
		if r.Tracer != nil {
			cfg.Tracer = r.Tracer
			cfg.TraceTag = fmt.Sprintf("%s/p=%d/n=%d/attempt=%d/rep=%d", r.App.Name(), p, n, attempt+1, rep)
		}
		start := time.Now()
		results, err := r.App.Run(cfg)
		if cm != nil {
			cm.runs.Inc()
			cm.runSeconds.Observe(time.Since(start).Seconds())
		}
		if err != nil {
			return Sample{}, fmt.Errorf("%s at p=%d n=%d attempt %d: %w", r.App.Name(), p, n, attempt+1, err)
		}
		vals := extract(results, stackDistance)
		if repeats > 1 {
			s.Runs = append(s.Runs, vals)
		}
		for k, v := range vals {
			s.Values[k] += v / float64(repeats)
		}
	}
	return s, nil
}

// measureConfig drives the retry loop of one configuration: exponential
// backoff between attempts, quarantine once the budget is exhausted.
func (r *ResilientRunner) measureConfig(grid Grid, p, n int, stackDistance float64, cm *campaignMetrics) (Sample, ConfigOutcome) {
	attempts := 1
	if r.Retries > 0 {
		attempts += r.Retries
	}
	backoff := r.Backoff
	if backoff <= 0 {
		backoff = DefaultBackoff
	}
	out := ConfigOutcome{P: p, N: n}
	for a := 0; a < attempts; a++ {
		out.Attempts = a + 1
		if cm != nil {
			cm.attempts.Inc()
		}
		s, err := r.measureOnce(grid, p, n, a, stackDistance, cm)
		if err == nil {
			if cm != nil && a > 0 {
				cm.recovered.Inc()
			}
			return s, out
		}
		out.Errors = append(out.Errors, err.Error())
		if cm != nil {
			cm.retries.Inc()
		}
		if a < attempts-1 {
			r.sleep(backoff)
			if backoff < maxBackoff {
				backoff *= 2
			}
		}
	}
	if cm != nil {
		cm.quarantined.Inc()
	}
	out.Quarantined = true
	return Sample{}, out
}

// ExecFunc runs n independent tasks, calling run(i) exactly once for every
// i in [0, n), possibly concurrently. A non-nil error means scheduling was
// abandoned (e.g. the executor's context was cancelled) and some tasks may
// not have run; implementations must still have returned only after every
// started task finished, so run never executes after ExecFunc returns.
type ExecFunc func(n int, run func(i int)) error

// ownPoolExec is the default executor: a private pool of `workers`
// goroutines, labeled for pprof so the campaign pool is identifiable in
// goroutine and CPU profiles when the harness runs with -pprof.
func ownPoolExec(workers int, app string) ExecFunc {
	return func(n int, run func(i int)) error {
		if workers > n {
			workers = n
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				labels := pprof.Labels("pool", "workload.ResilientRunner",
					"app", app, "worker", strconv.Itoa(w))
				pprof.Do(context.Background(), labels, func(context.Context) {
					for {
						i := int(next.Add(1)) - 1
						if i >= n {
							return
						}
						run(i)
					}
				})
			}(w)
		}
		wg.Wait()
		return nil
	}
}

// Run measures the app over the grid with retries and quarantine, and
// returns the campaign of surviving samples (p-major/n-minor order, lost
// configurations omitted) together with the campaign report. ctx reaches
// the Prefill and OnConfig hooks (nil counts as context.Background());
// measurement itself is cancelled through the Exec seam, which schedulers
// derive from the same context. Run fails only when the grid is invalid
// or when no configuration survives; losing part of the grid degrades the
// report instead.
func (r *ResilientRunner) Run(ctx context.Context, grid Grid) (*Campaign, *CampaignReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if r.App == nil {
		return nil, nil, fmt.Errorf("workload: ResilientRunner has no App")
	}
	if err := grid.Validate(); err != nil {
		return nil, nil, err
	}

	type config struct{ p, n int }
	var configs []config
	for _, p := range grid.Procs {
		for _, n := range grid.Ns {
			configs = append(configs, config{p, n})
		}
	}
	samples := make([]Sample, len(configs))
	outcomes := make([]ConfigOutcome, len(configs))

	// Prefill first: configurations a point cache already covers are
	// slotted in verbatim and never measured, so a campaign overlapping a
	// previous one pays only for its novel points.
	var missing []int
	if r.Prefill == nil {
		missing = make([]int, len(configs))
		for i := range configs {
			missing[i] = i
		}
	} else {
		for i, c := range configs {
			if s, out, ok := r.Prefill(ctx, c.p, c.n); ok {
				samples[i], outcomes[i] = s, out
				continue
			}
			missing = append(missing, i)
		}
	}
	prefilled := len(configs) - len(missing)

	// Locality probes run outside the simulated MPI runtime and are not
	// subject to injected faults (the paper measured them on a separate
	// system, §III). Only problem sizes that still need measurement are
	// probed — a fully prefilled n carries its stack distance inside the
	// cached samples.
	neededN := map[int]bool{}
	for _, i := range missing {
		neededN[configs[i].n] = true
	}
	stackByN := map[int]float64{}
	for _, n := range grid.Ns {
		if !neededN[n] {
			continue
		}
		an := locality.NewAnalyzer()
		an.MaxSamplesPerGroup = probeCap
		r.App.LocalityProbe(n, an)
		groups := locality.FilterGroups(an.Groups(), locality.DefaultMinSamples)
		stackByN[n] = locality.MedianStackDistance(groups)
	}

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(missing) {
		workers = len(missing)
	}
	cm := newCampaignMetrics(r.Metrics)
	exec := r.Exec
	if exec == nil {
		exec = ownPoolExec(workers, r.App.Name())
	}
	var finished atomic.Int64
	finished.Store(int64(prefilled))
	if r.Progress != nil && prefilled > 0 {
		r.Progress(prefilled, len(configs))
	}
	if err := exec(len(missing), func(j int) {
		i := missing[j]
		p, n := configs[i].p, configs[i].n
		samples[i], outcomes[i] = r.measureConfig(grid, p, n, stackByN[n], cm)
		if r.OnConfig != nil {
			r.OnConfig(ctx, samples[i], outcomes[i])
		}
		if r.Progress != nil {
			r.Progress(int(finished.Add(1)), len(configs))
		}
	}); err != nil {
		return nil, nil, err
	}

	var plan string
	if r.Faults.Active() {
		plan = r.Faults.String()
	}
	c, report := Assemble(r.App.Name(), grid, plan, samples, outcomes, r.MinPoints)
	if len(c.Samples) == 0 {
		return nil, report, fmt.Errorf("workload: %s campaign lost all %d configurations (retry budget %d); last error: %s",
			r.App.Name(), len(configs), r.Retries, lastError(outcomes))
	}
	return c, report, nil
}

// Assemble builds a campaign and its report from per-configuration
// samples and outcomes given in campaign (p-major, n-minor) order.
// Quarantined configurations are left out of the campaign and listed in
// the report, and the axis values that survive are checked against
// minPoints (<= 0 selects FivePointRule). plan is the report's fault plan
// in ParseFaultSpec grammar ("" for none). A campaign that lost every
// configuration comes back with no samples; the caller reports that.
func Assemble(app string, grid Grid, plan string, samples []Sample, outcomes []ConfigOutcome, minPoints int) (*Campaign, *CampaignReport) {
	report := &CampaignReport{App: app, Plan: plan, Configs: len(outcomes), Outcomes: outcomes}
	c := &Campaign{App: app, Grid: grid}
	survivingP, survivingN := map[int]bool{}, map[int]bool{}
	for i, out := range outcomes {
		if out.Quarantined {
			report.Quarantined = append(report.Quarantined, out)
			report.ExtraRuns += out.Attempts - 1
			continue
		}
		if out.Attempts > 1 {
			report.Recovered++
			report.ExtraRuns += out.Attempts - 1
		}
		c.Samples = append(c.Samples, samples[i])
		survivingP[out.P], survivingN[out.N] = true, true
	}
	if minPoints <= 0 {
		minPoints = FivePointRule
	}
	// Warnings are ordered by parameter name.
	if len(survivingN) < minPoints {
		report.AxisWarnings = append(report.AxisWarnings, AxisWarning{Param: "n", Points: len(survivingN), Required: minPoints})
	}
	if len(survivingP) < minPoints {
		report.AxisWarnings = append(report.AxisWarnings, AxisWarning{Param: "p", Points: len(survivingP), Required: minPoints})
	}
	return c, report
}

// lastError extracts the most recent failure message from the outcomes,
// for the all-lost error path.
func lastError(outcomes []ConfigOutcome) string {
	for i := len(outcomes) - 1; i >= 0; i-- {
		if n := len(outcomes[i].Errors); n > 0 {
			return outcomes[i].Errors[n-1]
		}
	}
	return "no error recorded"
}

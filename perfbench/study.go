package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"extrareq"
	"extrareq/internal/adaptive"
	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/obs"
	"extrareq/internal/workload"
)

// The study workloads are a reqgen user in a closed loop: one client, each
// op one extrareq.Run of one proxy over the 5×5 bench grid with model
// fitting, into a fresh empty cache directory (a first run pays that cost).
// A seeded round-robin runs every app equally often, one permutation of the
// five apps per round, so every run measures whole rounds.

// studyGrid is the 5×5 bench grid with reqgen's default jitter seed. The
// workload seed orders the ops; the specs stay fixed, so the committed
// oracle applies to every workload seed and the outputs (points measured,
// model agreement) do not vary with it.
func studyGrid() workload.Grid {
	return workload.Grid{
		Procs: []int{2, 4, 8, 16, 32},
		Ns:    []int{128, 256, 512, 1024, 2048},
		Seed:  42,
	}
}

// studyRetries is reqgen's -retries default, which it passes to Run.
const studyRetries = 2

// studyOrder returns the app sequence of the first rounds rounds: each
// round is a seeded permutation of the five proxies.
func studyOrder(seed int64, rounds int) []string {
	names := extrareq.PaperAppNames()
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, rounds*len(names))
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(names)) {
			out = append(out, names[i])
		}
	}
	return out
}

// studyOutcome is what one op produced.
type studyOutcome struct {
	app      string
	latency  time.Duration
	cpu      time.Duration     // process CPU time of the op
	models   map[string]string // metric -> winning model
	shapes   map[string]string // metric -> adaptive.ModelShape
	points   [][2]int          // measured configurations, grid order
	measured int
	err      error
}

func outcomeOf(app string, c *workload.Campaign, fit *workload.FitResult, measured int) studyOutcome {
	o := studyOutcome{app: app, models: map[string]string{}, shapes: map[string]string{}, measured: measured}
	for _, m := range metrics.All() {
		if info := fit.Info[m]; info != nil {
			o.models[m.String()] = info.Model.String()
			o.shapes[m.String()] = adaptive.ModelShape(info.Model)
		}
	}
	for _, s := range c.Samples {
		o.points = append(o.points, [2]int{s.P, s.N})
	}
	return o
}

// studyOracle holds the committed expected outputs of the study specs.
type studyOracle struct {
	GridSeed int64                        `json:"grid_seed"`
	Cold     map[string]map[string]string `json:"cold"`
	Adaptive map[string]adaptiveExpect    `json:"adaptive"`
}

type adaptiveExpect struct {
	Points [][2]int          `json:"points"`
	Models map[string]string `json:"models"`
}

//go:embed oracle.json
var oracleJSON []byte

func loadOracle() (*studyOracle, error) {
	var o studyOracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("oracle.json: %w", err)
	}
	if o.GridSeed != studyGrid().Seed {
		return nil, fmt.Errorf("oracle.json was recorded for grid seed %d, the studies use %d", o.GridSeed, studyGrid().Seed)
	}
	return &o, nil
}

// studyChecker validates every op: against the committed oracle, against
// the full-grid reference fitted at set-up, and against the first op of
// the same app in the run (repeated specs must give identical results).
type studyChecker struct {
	adaptive bool
	oracle   *studyOracle
	ref      map[string]studyOutcome // full-grid fit per app
	first    map[string]studyOutcome
	agree    int // model shapes equal to the full-grid shapes
	shapes   int
}

// check reports why o is wrong, or "" when it is correct. It also counts
// shape agreement with the full-grid reference.
func (c *studyChecker) check(o studyOutcome) string {
	if o.err != nil {
		return o.err.Error()
	}
	if len(o.models) != len(metrics.All()) {
		return fmt.Sprintf("%s: %d of %d models fitted", o.app, len(o.models), len(metrics.All()))
	}
	if ref, ok := c.ref[o.app]; ok {
		for m, s := range ref.shapes {
			c.shapes++
			if o.shapes[m] == s {
				c.agree++
			}
		}
		if !c.adaptive && !reflect.DeepEqual(o.models, ref.models) {
			return fmt.Sprintf("%s: models differ from the full-grid reference", o.app)
		}
	}
	if c.oracle != nil {
		if c.adaptive {
			want := c.oracle.Adaptive[o.app]
			if !reflect.DeepEqual(o.models, want.Models) {
				return fmt.Sprintf("%s: adaptive models differ from the oracle", o.app)
			}
			if !reflect.DeepEqual(o.points, want.Points) {
				return fmt.Sprintf("%s: adaptive point set differs from the oracle", o.app)
			}
		} else if !reflect.DeepEqual(o.models, c.oracle.Cold[o.app]) {
			return fmt.Sprintf("%s: models differ from the oracle", o.app)
		}
	}
	if f, ok := c.first[o.app]; ok {
		if !reflect.DeepEqual(o.models, f.models) || !reflect.DeepEqual(o.points, f.points) {
			return fmt.Sprintf("%s: repeated spec gave a different result", o.app)
		}
	} else {
		c.first[o.app] = o
	}
	return ""
}

// studyReference fits every app over the full grid in memory. It is the
// studies' set-up: the reference shapes, and the warm-up of every code
// path an op takes.
func studyReference(ctx context.Context, grid workload.Grid) (map[string]studyOutcome, error) {
	ref := map[string]studyOutcome{}
	for _, app := range extrareq.PaperAppNames() {
		res, err := extrareq.Run(ctx, extrareq.Spec{App: app, Grid: grid})
		if err != nil {
			return nil, fmt.Errorf("reference fit of %s: %w", app, err)
		}
		ref[app] = outcomeOf(app, res.Campaign, res.Requirements, res.PointsMeasured)
	}
	return ref, nil
}

// runStudyOp is one untraced op: extrareq.Run the way reqgen -cache-dir
// calls it, with model fitting.
func runStudyOp(ctx context.Context, app string, grid workload.Grid, dir string, adaptiveRun bool) studyOutcome {
	opts := []extrareq.Option{
		extrareq.WithRetries(studyRetries),
		extrareq.WithMinPoints(0),
		extrareq.WithCache(dir),
	}
	if adaptiveRun {
		opts = append(opts, extrareq.WithAdaptiveGrid(extrareq.AdaptiveOptions{}))
	}
	start, cpu0 := time.Now(), cpuTime()
	res, err := extrareq.Run(ctx, extrareq.Spec{App: app, Grid: grid}, opts...)
	lat, cpu := time.Since(start), cpuTime()-cpu0
	if err != nil {
		return studyOutcome{app: app, latency: lat, cpu: cpu, err: err}
	}
	o := outcomeOf(app, res.Campaign, res.Requirements, res.PointsMeasured)
	o.latency, o.cpu = lat, cpu
	return o
}

// runTracedStudyOp is one traced op. It makes the calls Run makes —
// campaign.New over the cache directory's DiskStore, then Scheduler.Run or
// adaptive.Run, then the fit — with every seam wrapped.
func runTracedStudyOp(ctx context.Context, tp *probe, app string, grid workload.Grid, dir string, adaptiveRun bool) studyOutcome {
	a, ok := apps.ByName(app)
	if !ok {
		return studyOutcome{app: app, err: fmt.Errorf("unknown app %q", app)}
	}
	start := time.Now()
	op := tp.t.begin(layerOp, noSpan)
	o, sched := tracedStudyCalls(withSpan(ctx, op), tp, op, a, grid, dir, adaptiveRun)
	tp.t.end(op)
	o.latency = time.Since(start)
	if sched != nil {
		tp.addStats(sched.Stats())
	}
	return o
}

func tracedStudyCalls(ctx context.Context, tp *probe, op int32, app apps.App, grid workload.Grid, dir string, adaptiveRun bool) (studyOutcome, *campaign.Scheduler) {
	fail := func(err error) (studyOutcome, *campaign.Scheduler) {
		return studyOutcome{app: app.Name(), err: err}, nil
	}
	disk, err := campaign.OpenDiskStore(dir)
	if err != nil {
		return fail(err)
	}
	sched, err := campaign.New(campaign.Options{Store: &timedStore{inner: disk, t: tp.t, c: &tp.store}})
	if err != nil {
		return fail(err)
	}
	defer sched.Close()
	runner := &timedRunner{Scheduler: sched, t: tp.t, c: &tp.runner}
	req := campaign.Request{App: app, Grid: grid, Retries: studyRetries, Metrics: tp.reg}
	var c *workload.Campaign
	var measured int
	if adaptiveRun {
		id := tp.t.begin(layerAdaptive, op)
		res, err := adaptive.Run(withSpan(ctx, id), runner, req, adaptive.Options{})
		tp.t.end(id)
		if err != nil {
			return fail(err)
		}
		c, measured = res.Campaign, res.PointsMeasured
	} else {
		out, err := runner.Run(ctx, req)
		if err != nil {
			return fail(err)
		}
		c, measured = out.Campaign, out.PointsMeasured
	}
	id := tp.t.begin(layerModeling, op)
	fits, _, err := workload.FitAllObserved([]*workload.Campaign{c}, nil, 0, modeling.NewFitCache(), tp.reg)
	tp.t.end(id)
	if err != nil {
		return fail(err)
	}
	return outcomeOf(app.Name(), c, fits[0], measured), sched
}

// studyLoop runs whole rounds of ops until budget has elapsed (checked at
// round boundaries) or, when maxOps > 0, until maxOps ops have run. Each op
// gets a fresh cache directory under base; base is removed afterwards.
func studyLoop(ctx context.Context, order []string, budget time.Duration, maxOps int, base string,
	op func(app, dir string) studyOutcome) ([]studyOutcome, time.Duration, time.Duration, error) {
	rounds := len(extrareq.PaperAppNames())
	var outs []studyOutcome
	start, cpu0 := time.Now(), cpuTime()
	for i := 0; ; i++ {
		if i%rounds == 0 {
			if maxOps > 0 && i >= maxOps {
				break
			}
			if maxOps <= 0 && i > 0 && time.Since(start) >= budget {
				break
			}
		}
		if i >= len(order) {
			return nil, 0, 0, fmt.Errorf("op sequence of %d ops exhausted", len(order))
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
		outs = append(outs, op(order[i], filepath.Join(base, fmt.Sprintf("op-%05d", i))))
	}
	elapsed, cpu := time.Since(start), cpuTime()-cpu0
	if err := os.RemoveAll(base); err != nil {
		return nil, 0, 0, err
	}
	return outs, elapsed, cpu, nil
}

// studyRounds bounds the generated op sequence; a round takes at least
// tens of milliseconds, so it outlasts any run the benchmark accepts.
const studyRounds = 20000

func runStudy(ctx context.Context, cfg config, adaptiveRun bool) (*result, error) {
	grid := studyGrid()
	oracle, err := loadOracle()
	if err != nil {
		return nil, err
	}
	ref, setupS, err := medianSetup(setupReps,
		func() (map[string]studyOutcome, error) { return studyReference(ctx, grid) },
		func(map[string]studyOutcome) {})
	if err != nil {
		return nil, err
	}
	order := studyOrder(cfg.seed, studyRounds)
	chk := &studyChecker{adaptive: adaptiveRun, oracle: oracle, ref: ref, first: map[string]studyOutcome{}}

	budget := cfg.seconds
	if cfg.trace {
		budget = cfg.seconds / 3
	}
	base, err := scratchDir(cfg, "study-")
	if err != nil {
		return nil, err
	}
	outs, elapsed, cpu, err := studyLoop(ctx, order, budget, 0, base, func(app, dir string) studyOutcome {
		return runStudyOp(ctx, app, grid, dir, adaptiveRun)
	})
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(outs), Metrics: map[string]metric{}}
	var lat, cpuMs []float64
	measured := 0
	for _, o := range outs {
		if why := chk.check(o); why != "" {
			res.Failed++
			fmt.Fprintf(cfg.log, "perfbench: check failed: %s\n", why)
			continue
		}
		lat = append(lat, ms(o.latency))
		cpuMs = append(cpuMs, ms(o.cpu))
		measured += o.measured
	}
	res.Correct = res.Failed == 0

	name := "cold-study"
	if adaptiveRun {
		name = "adaptive-study"
	}
	if cfg.trace {
		return traceStudy(ctx, cfg, res, chk, order, len(outs), elapsed, grid, adaptiveRun)
	}
	res.Metrics = endToEnd(setupS, median(cpuMs), len(outs), res.Failed, measured, chk.agree, chk.shapes)
	fmt.Fprintf(cfg.log, "%s seed=%d: %d ops (%d failed)\n", name, cfg.seed, res.Attempted, res.Failed)
	q1, _, q3 := quartiles(lat)
	rows := []row{
		{"cpu_ms_per_op", ms(cpu) / float64(max(len(outs), 1)), "ms (CPU)"},
		{"ops_per_s", float64(len(outs)) / elapsed.Seconds(), "1/s"},
		{"campaign_p50_ms", percentile(lat, 0.5), "ms"},
		{"campaign_p90_ms", percentile(lat, 0.9), "ms"},
		{"campaign_q1_ms", q1, "ms"},
		{"campaign_q3_ms", q3, "ms"},
	}
	byApp := map[string][]float64{}
	for _, o := range outs {
		if o.err == nil {
			byApp[o.app] = append(byApp[o.app], ms(o.latency))
		}
	}
	for _, app := range extrareq.PaperAppNames() {
		rows = append(rows, row{app + "_p50_ms", median(byApp[app]), "ms"})
	}
	printTable(cfg.log, res.Metrics, rows)
	return res, nil
}

// traceStudy re-runs the untraced phase's ops traced, on the same seed, and
// then a traced phase of the other study for the side-by-side table.
func traceStudy(ctx context.Context, cfg config, res *result, chk *studyChecker, order []string,
	ops int, untraced time.Duration, grid workload.Grid, adaptiveRun bool) (*result, error) {
	runPhase := func(adaptiveRun bool, maxOps int) (phase, time.Duration, []studyOutcome, error) {
		tp := newProbe(obs.NewRegistry())
		base, err := scratchDir(cfg, "traced-")
		if err != nil {
			return phase{}, 0, nil, err
		}
		tp.begin()
		outs, elapsed, _, err := studyLoop(ctx, order, 0, maxOps, base, func(app, dir string) studyOutcome {
			return runTracedStudyOp(ctx, tp, app, grid, dir, adaptiveRun)
		})
		if err != nil {
			return phase{}, 0, nil, err
		}
		return tp.finish(len(outs), 0), elapsed, outs, nil
	}
	cur, elapsed, outs, err := runPhase(adaptiveRun, ops)
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		res.Attempted++
		if why := chk.check(o); why != "" {
			res.Failed++
			fmt.Fprintf(cfg.log, "perfbench: traced check failed: %s\n", why)
		}
	}
	res.Correct = res.Failed == 0
	other, _, _, err := runPhase(!adaptiveRun, ops)
	if err != nil {
		return nil, err
	}
	cur.metrics["trace.overhead_frac"] = metric{elapsed.Seconds()/untraced.Seconds() - 1, "frac"}
	res.Metrics = cur.metrics
	cold, adapt := cur, other
	name := "cold-study"
	if adaptiveRun {
		cold, adapt = other, cur
		name = "adaptive-study"
	}
	printReconciliation(cfg.log, name, cur)
	printComparison(cfg.log, cold, adapt)
	return res, nil
}

// recordOracle measures the study outputs and writes them as the oracle
// file the benchmark embeds.
func recordOracle(ctx context.Context, path string) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	grid := studyGrid()
	o := studyOracle{GridSeed: grid.Seed, Cold: map[string]map[string]string{}, Adaptive: map[string]adaptiveExpect{}}
	for _, app := range extrareq.PaperAppNames() {
		for _, adaptiveRun := range []bool{false, true} {
			dir, err := os.MkdirTemp(buildDir, "oracle-")
			if err != nil {
				return err
			}
			out := runStudyOp(ctx, app, grid, dir, adaptiveRun)
			os.RemoveAll(dir)
			if out.err != nil {
				return out.err
			}
			if adaptiveRun {
				o.Adaptive[app] = adaptiveExpect{Points: out.points, Models: out.models}
			} else {
				o.Cold[app] = out.models
			}
		}
	}
	data, err := json.MarshalIndent(&o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Package adaptive closes the measurement loop the ROADMAP calls
// model-driven adaptive experiment design: instead of measuring a fixed
// (p, n) grid, a campaign starts from a minimal seed that satisfies the
// paper's five-point rule per axis (the grid's baseline lines), fits the
// requirement models, scores the remaining grid configurations by expected
// model-confidence gain, and measures only the most informative batch —
// repeating until the winning model strings are stable and leave-one-out
// cross-validation stops improving, or until a hard point budget is
// reached.
//
// The engine composes with the existing machinery instead of replacing it:
// each round — the seed lines, then each batch — is one point-set request
// (campaign.Request.Points) through a campaign scheduler, the same path a
// fixed-grid campaign takes, so the shared worker pool, fault injection,
// retries/quarantine, locality probes, observability, and the point cache
// all apply unchanged. A point-set request writes no campaign entry: the
// point entries are the record. Because ComputePointKey excludes the grid
// axes, they are the same cache entries a fixed-grid campaign of the same
// spec would write — a fleet mixing adaptive and fixed-grid campaigns over
// one store converges together, measuring each point at most once. The
// whole refinement loop is memoized by the scheduler (Runner.Memo) under
// the adaptive key, so a repeat is served from that campaign entry and
// counted like a fixed-grid hit; the entry records the selection, not why
// the loop stopped, so a repeat reports no stop reason.
//
// Determinism: the seed, the scores, the tie-breaks, and the stopping rule
// are all pure functions of the request and the (deterministic) measured
// bytes, each round's points are requested in canonical grid order, and
// its results are filed by configuration. Two adaptive runs of the same
// request and options are byte-identical, across repeats and worker
// counts — which is what makes the campaign-level cache entry (keyed by
// the seed spec + adaptive options) sound.
package adaptive

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sort"

	"extrareq/internal/campaign"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/obs"
	"extrareq/internal/pmnf"
	"extrareq/internal/workload"
)

// Options tune the refinement loop. The zero value selects the documented
// defaults; all numeric fields participate in the adaptive cache key.
type Options struct {
	// BatchSize is the number of configurations measured per refinement
	// round; <= 0 selects max(1, fullGrid/8).
	BatchSize int
	// MaxPoints is the hard budget on selected configurations (seed
	// included); <= 0 selects half the full grid, which guarantees the
	// ≤ 50% measurement bound. The five-point-rule seed is always
	// measured, even when it alone exceeds the budget.
	MaxPoints int
	// Improvement is the relative cross-validated-SMAPE improvement below
	// which a refit with unchanged winning model strings counts as
	// stable; <= 0 selects 0.02.
	Improvement float64
	// StableRounds is the number of consecutive stable refits required to
	// converge; <= 0 selects 1.
	StableRounds int
	// FitCache, when non-nil, memoizes the interim fits; a caller that
	// passes the cache it then fits the finished campaign with gets the
	// last round's fits back as hits. Nil gives each run a cache of its
	// own, which still shares baseline-line searches between rounds. Fits
	// are pure functions of their content, so the cache never changes a
	// result and does not participate in the cache key.
	FitCache *modeling.FitCache `json:"-"`
}

// defaults resolves the documented default for every unset numeric field,
// given the full-grid size. ComputeKey hashes the resolved values, so an
// explicit Options{BatchSize: 3} and the zero value share a key on a grid
// whose default batch is 3 — they run identically.
func (o Options) defaults(fullGrid int) Options {
	if o.BatchSize <= 0 {
		o.BatchSize = max(1, fullGrid/8)
	}
	if o.MaxPoints <= 0 {
		o.MaxPoints = fullGrid / 2
	}
	if o.Improvement <= 0 {
		o.Improvement = 0.02
	}
	if o.StableRounds <= 0 {
		o.StableRounds = 1
	}
	return o
}

// Runner is the scheduler surface the engine needs: point-set measurement
// with the full point-cache machinery, and memoization of the whole run
// under the adaptive key. *campaign.Scheduler implements it, and so does
// the serve layer's Runner.
type Runner interface {
	Run(ctx context.Context, req campaign.Request) (*campaign.Outcome, error)
	Memo(ctx context.Context, req campaign.Request, key campaign.Key,
		run func(context.Context) (*campaign.Outcome, error)) (*campaign.Outcome, error)
}

// Result is a finished adaptive campaign: the outcome of the selection and
// how the refinement went. Campaign.Grid holds the full requested grid
// (the spec), while Campaign.Samples holds only the selected
// configurations' samples; Report.Configs counts the selection. Key is the
// adaptive campaign key (the fixed-grid key of the seed spec salted with
// the resolved adaptive options), PointsReused and PointsMeasured split
// the selection by assembly path, and CacheHit reports that nothing was
// measured. Body is set, and shared, only when the run was served from
// its campaign entry.
type Result struct {
	campaign.Outcome
	// PointsSaved counts full-grid configurations never selected at all.
	PointsSaved int
	// FullGridPoints is the size of the requested grid.
	FullGridPoints int
	// Rounds counts fits over the measured set; 0 when the run was served
	// from its campaign entry.
	Rounds int
	// Converged reports the run stopped on the stability rule rather than
	// the point budget. The campaign entry does not record why the run
	// stopped, so a run served from it reports false, with Rounds 0.
	Converged bool
}

// ComputeKey returns the campaign-level cache address of an adaptive run:
// the fixed-grid key of the seed spec (app, grid, seed, repeats, faults,
// retries, min-points) salted with the resolved adaptive options. Two
// requests share the key exactly when the refinement they describe is
// byte-identical.
func ComputeKey(req campaign.Request, opts Options) campaign.Key {
	procs, ns := axisValues(req.Grid.Procs), axisValues(req.Grid.Ns)
	o := opts.defaults(len(procs) * len(ns))
	h := sha256.New()
	fmt.Fprintf(h, "extrareq/adaptive/v%d\n", campaign.KeyVersion)
	fmt.Fprintf(h, "base:%s\n", campaign.ComputeKey(req))
	fmt.Fprintf(h, "batch:%d\nmaxpoints:%d\nimprovement:%g\nstable:%d\n",
		o.BatchSize, o.MaxPoints, o.Improvement, o.StableRounds)
	var k campaign.Key
	h.Sum(k[:0])
	return k
}

// Run executes one adaptive campaign through r. The request is the seed
// spec — exactly what a fixed-grid campaign would take; Grid is the full
// candidate grid, of which the engine measures a subset.
func Run(ctx context.Context, r Runner, req campaign.Request, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.Grid.Validate(); err != nil {
		return nil, err
	}
	e := &engine{
		r:     r,
		req:   req,
		procs: axisValues(req.Grid.Procs),
		ns:    axisValues(req.Grid.Ns),
		ad:    obs.NewAdaptive(req.Metrics),
	}
	e.full = len(e.procs) * len(e.ns)
	e.opts = opts.defaults(e.full)
	if e.opts.FitCache == nil {
		e.opts.FitCache = modeling.NewFitCache()
	}
	e.key = ComputeKey(req, opts)
	e.samples = make(map[[2]int]workload.Sample, e.opts.MaxPoints)
	e.outcomes = make(map[[2]int]workload.ConfigOutcome, e.opts.MaxPoints)
	return e.run(ctx)
}

// engine is the per-run state of one refinement loop.
type engine struct {
	r    Runner
	req  campaign.Request
	opts Options
	key  campaign.Key
	ad   *obs.Adaptive

	procs, ns []int // sorted distinct axis values
	full      int

	samples  map[[2]int]workload.Sample
	outcomes map[[2]int]workload.ConfigOutcome
	reused   int
	measured int
	plan     string

	rounds    int
	converged bool
}

func (e *engine) run(ctx context.Context) (*Result, error) {
	// Byte-identical repeats come straight from the adaptive campaign
	// entry, exactly like fixed-grid repeats. A hit reports the selection
	// done out of the full grid, whose size counts distinct axis values.
	req := e.req
	if req.Progress != nil {
		req.Progress = func(done, _ int) { e.req.Progress(done, e.full) }
	}
	var res *Result
	out, err := e.r.Memo(ctx, req, e.key, func(ctx context.Context) (*campaign.Outcome, error) {
		var err error
		if res, err = e.refine(ctx); err != nil {
			return nil, err
		}
		return &res.Outcome, nil
	})
	if err != nil {
		return nil, err
	}
	if res == nil {
		e.ad.CacheHit.Inc()
		res = &Result{Outcome: *out, PointsSaved: e.full - out.Report.Configs, FullGridPoints: e.full}
	}
	return res, nil
}

// refine runs the refinement loop: the seed lines, then batches until the
// models are stable or the budget is spent.
func (e *engine) refine(ctx context.Context) (*Result, error) {
	if err := e.measure(ctx, e.seedPoints()); err != nil {
		return nil, err
	}
	fitPrev, errPrev := e.fit()
	e.rounds++
	e.ad.Rounds.Inc()

	stable := 0
	for {
		remaining := e.remaining()
		if len(remaining) == 0 {
			e.converged = true // the whole grid is measured; nothing to refine
			break
		}
		if e.selected() >= e.opts.MaxPoints {
			break // budget stop
		}
		k := min(e.opts.BatchSize, e.opts.MaxPoints-e.selected())
		batch := e.pick(remaining, fitPrev, k)
		if err := e.measure(ctx, batch); err != nil {
			return nil, err
		}
		fitCur, errCur := e.fit()
		e.rounds++
		e.ad.Rounds.Inc()
		if errPrev == nil && errCur == nil &&
			sameModels(fitPrev, fitCur) && maxImprovement(fitPrev, fitCur) < e.opts.Improvement {
			stable++
		} else {
			stable = 0
		}
		fitPrev, errPrev = fitCur, errCur
		if stable >= e.opts.StableRounds {
			e.converged = true
			break
		}
	}
	return e.finish()
}

// finish assembles the campaign + report from the per-point records in
// canonical grid order.
func (e *engine) finish() (*Result, error) {
	pts := e.selectedPoints()
	samples := make([]workload.Sample, len(pts))
	outcomes := make([]workload.ConfigOutcome, len(pts))
	for i, pt := range pts {
		samples[i], outcomes[i] = e.samples[pt], e.outcomes[pt]
	}
	c, rep := workload.Assemble(e.req.App.Name(), e.req.Grid, e.plan, samples, outcomes, e.req.MinPoints)
	if len(c.Samples) == 0 {
		return nil, fmt.Errorf("adaptive: %s campaign lost all %d selected configurations",
			e.req.App.Name(), e.selected())
	}

	res := &Result{
		Outcome: campaign.Outcome{Campaign: c, Report: rep, Key: e.key,
			CacheHit: e.measured == 0, PointsReused: e.reused, PointsMeasured: e.measured},
		PointsSaved:    e.full - e.selected(),
		FullGridPoints: e.full,
		Rounds:         e.rounds,
		Converged:      e.converged,
	}
	if e.converged {
		e.ad.Converged.Inc()
	} else {
		e.ad.BudgetStop.Inc()
	}
	e.ad.PointsSaved.Add(int64(res.PointsSaved))
	return res, nil
}

func (e *engine) selected() int { return len(e.outcomes) }

// seedPoints returns the baseline lines of the grid — every (p, n_min) and
// (p_min, n) — in canonical order. The seed covers every distinct value of
// both axes, so it satisfies the five-point rule exactly when the
// requested grid does: adaptive refinement can never introduce a coverage
// warning the full grid would not also have reported.
func (e *engine) seedPoints() [][2]int {
	var pts [][2]int
	pMin, nMin := e.procs[0], e.ns[0]
	for _, p := range e.procs {
		for _, n := range e.ns {
			if p == pMin || n == nMin {
				pts = append(pts, [2]int{p, n})
			}
		}
	}
	return pts
}

// selectedPoints returns the selected configurations in canonical
// (p-major, n-minor) grid order.
func (e *engine) selectedPoints() [][2]int {
	pts := make([][2]int, 0, len(e.outcomes))
	for _, p := range e.procs {
		for _, n := range e.ns {
			if _, ok := e.outcomes[[2]int{p, n}]; ok {
				pts = append(pts, [2]int{p, n})
			}
		}
	}
	return pts
}

// remaining returns the unselected configurations in canonical order.
func (e *engine) remaining() [][2]int {
	var pts [][2]int
	for _, p := range e.procs {
		for _, n := range e.ns {
			if _, ok := e.outcomes[[2]int{p, n}]; !ok {
				pts = append(pts, [2]int{p, n})
			}
		}
	}
	return pts
}

// measure runs one round — the seed lines or a batch, in canonical grid
// order — as one point-set request and files the returned samples and
// outcomes by configuration. The request's progress callbacks arrive in
// order, so each is forwarded as this round's base plus the round's
// counts; total is always the full grid, the spec the caller asked about,
// of which an adaptive run completes only the selected part. A round lost
// whole comes back as an error together with its full report, every
// configuration quarantined; that is the same record a fixed-grid
// campaign keeps for those points, so it is filed like any other round.
func (e *engine) measure(ctx context.Context, pts [][2]int) error {
	round := e.req
	round.Points = pts
	done, reused, measured := e.selected(), e.reused, e.measured
	if e.req.Progress != nil {
		round.Progress = func(d, _ int) { e.req.Progress(done+d, e.full) }
	}
	if e.req.PointProgress != nil {
		round.PointProgress = func(r, m int) { e.req.PointProgress(reused+r, measured+m) }
	}
	out, err := e.r.Run(ctx, round)
	if out == nil || out.Report == nil || len(out.Report.Outcomes) != len(pts) {
		if err == nil {
			err = errors.New("runner returned no outcome record")
		}
		return fmt.Errorf("adaptive: measuring %d configurations: %w", len(pts), err)
	}
	for _, o := range out.Report.Outcomes {
		e.outcomes[[2]int{o.P, o.N}] = o
	}
	if out.Campaign != nil {
		for _, sm := range out.Campaign.Samples {
			e.samples[[2]int{sm.P, sm.N}] = sm
		}
	}
	if out.Report.Plan != "" {
		e.plan = out.Report.Plan
	}
	e.reused += out.PointsReused
	e.measured += out.PointsMeasured
	e.ad.PointsReused.Add(int64(out.PointsReused))
	e.ad.PointsMeasured.Add(int64(out.PointsMeasured))
	return nil
}

// fit generates the five requirement models from the measured set so far.
// MinPoints is lowered to the axis size for grids below the five-point
// rule — the interim fits guide point selection; the caller's final fit
// applies its own threshold. A fit error (e.g. an axis value lost to
// quarantine) is tolerated: selection falls back to pure extrapolation
// leverage and the stability rule cannot advance.
func (e *engine) fit() (*workload.FitResult, error) {
	c := &workload.Campaign{App: e.req.App.Name(), Grid: e.req.Grid}
	for _, pt := range e.selectedPoints() {
		if s, ok := e.samples[pt]; ok {
			c.Samples = append(c.Samples, s)
		}
	}
	opts := modeling.DefaultOptions()
	opts.MinPoints = min(opts.MinPoints, len(e.procs), len(e.ns))
	fits, _, err := workload.FitAllObserved([]*workload.Campaign{c}, opts, 0, e.opts.FitCache, nil)
	if err != nil {
		return nil, err
	}
	return fits[0], nil
}

// pick scores the remaining candidates and returns the top k. The score of
// a candidate is the interpolated leave-one-out error of the current
// models around it (how poorly the models predict that neighbourhood from
// their other points) weighted by extrapolation leverage toward large p
// and n — the paper's requirements are extrapolations to exascale, so
// confidence at the top of the grid is worth more than in the interior.
// Ties break deterministically toward larger p, then larger n.
func (e *engine) pick(remaining [][2]int, fit *workload.FitResult, k int) [][2]int {
	type scored struct {
		pt    [2]int
		score float64
	}
	cands := make([]scored, len(remaining))
	for i, pt := range remaining {
		u := e.uncertainty(fit, pt)
		lev := 1 + (e.axisPos(e.procs, pt[0])+e.axisPos(e.ns, pt[1]))/2
		cands[i] = scored{pt: pt, score: u * lev}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		if cands[i].pt[0] != cands[j].pt[0] {
			return cands[i].pt[0] > cands[j].pt[0]
		}
		return cands[i].pt[1] > cands[j].pt[1]
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([][2]int, k)
	for i := range out {
		out[i] = cands[i].pt
	}
	return out
}

// uncertainty interpolates the models' per-point leave-one-out errors at a
// candidate: for each metric, the inverse-squared-distance-weighted mean
// of the fold errors in normalized log2 axis space, averaged over the
// metrics. Without usable fits it returns 1 for every candidate, reducing
// selection to pure leverage.
func (e *engine) uncertainty(fit *workload.FitResult, pt [2]int) float64 {
	if fit == nil {
		return 1
	}
	cp := e.axisPos(e.procs, pt[0])
	cn := e.axisPos(e.ns, pt[1])
	sum, nm := 0.0, 0
	for _, m := range metrics.All() {
		info := fit.Info[m]
		if info == nil || len(info.CVFolds) == 0 {
			continue
		}
		var wsum, esum float64
		for _, f := range info.CVFolds {
			if len(f.Coords) != 2 {
				continue
			}
			dp := cp - e.axisPos(e.procs, int(f.Coords[0]))
			dn := cn - e.axisPos(e.ns, int(f.Coords[1]))
			w := 1 / (dp*dp + dn*dn + 1e-6)
			wsum += w
			esum += w * f.Err
		}
		if wsum > 0 {
			sum += esum / wsum
			nm++
		}
	}
	if nm == 0 {
		return 1
	}
	return sum / float64(nm)
}

// axisPos maps an axis value to its normalized log2 position in [0, 1]
// (0 for a single-valued axis). Values off the grid (which cannot occur
// for fold coordinates) clamp via the log-space formula unchanged.
func (e *engine) axisPos(axis []int, v int) float64 {
	lo, hi := float64(axis[0]), float64(axis[len(axis)-1])
	if lo <= 0 || hi <= lo {
		return 0
	}
	return (math.Log2(float64(v)) - math.Log2(lo)) / (math.Log2(hi) - math.Log2(lo))
}

// sameModels reports whether two fits selected the same winning model
// structure for every metric. Structure — which terms won, Table II's
// currency — is what model selection decides; coefficients legitimately
// drift with every added point and would keep the stability rule from
// ever firing.
func sameModels(a, b *workload.FitResult) bool {
	for _, m := range metrics.All() {
		ia, ib := a.Info[m], b.Info[m]
		if ia == nil || ib == nil || ModelShape(ia.Model) != ModelShape(ib.Model) {
			return false
		}
	}
	return true
}

// ModelShape renders a model's growth-term structure with the
// coefficients blanked: "c·p·n + c·n". The constant is dropped — every
// PMNF model carries one, and a solver can leave a vestigial ~1e-9
// constant where another run leaves exactly 0 — so two models share a
// shape exactly when the search selected the same growth hypothesis.
func ModelShape(m *pmnf.Model) string {
	if m == nil {
		return ""
	}
	c := m.Clone()
	c.Constant = 0
	return c.Format(func(float64) string { return "c" })
}

// maxImprovement returns the largest relative cross-validated-SMAPE
// improvement over the metrics (negative when every metric got worse).
func maxImprovement(prev, cur *workload.FitResult) float64 {
	best := math.Inf(-1)
	for _, m := range metrics.All() {
		ip, ic := prev.Info[m], cur.Info[m]
		if ip == nil || ic == nil {
			continue
		}
		denom := math.Max(ip.CVScore, 1e-9)
		if imp := (ip.CVScore - ic.CVScore) / denom; imp > best {
			best = imp
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

// axisValues returns the sorted distinct values of one grid axis.
func axisValues(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

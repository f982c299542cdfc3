// Package modeling implements the empirical performance-model generator the
// paper builds on (Extra-P, refs [5] and [6]): given measurements of a
// metric at several configurations of each model parameter, it searches the
// performance model normal form hypothesis space (package pmnf), fits
// coefficients with least squares, and selects the winning hypothesis by
// leave-one-out cross-validated SMAPE.
//
// Single-parameter models are found by iterative term addition: start from
// the constant model, add the best single term, and keep adding terms while
// cross-validation shows significant improvement (paper §II-C). For
// multi-parameter models, the single-parameter models found for each
// parameter are combined additively and multiplicatively according to the
// expanded performance model normal form (Equation 2) and the best
// combination is selected, again by cross-validation.
package modeling

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"extrareq/internal/mathx"
	"extrareq/internal/pmnf"
	"extrareq/internal/stats"
)

// Options control the hypothesis space and the selection procedure.
// The zero value is not useful; use DefaultOptions.
type Options struct {
	// PolyExponents and LogExponents define the poly-log hypothesis space.
	PolyExponents []float64
	LogExponents  []float64
	// Collectives adds Allreduce/Bcast/Alltoall/Allgather basis functions to
	// the hypothesis space of the named parameters (typically "p" for
	// communication metrics).
	Collectives map[string]bool
	// MaxTerms bounds the number of non-constant terms per single-parameter
	// model (the paper uses small n; default 2).
	MaxTerms int
	// Improvement is the minimal relative cross-validation improvement
	// required to accept an additional term (default 0.05).
	Improvement float64
	// AllowNegative permits negative term coefficients. Requirements metrics
	// are nonnegative growing counts, so the default is false, which
	// discards hypotheses with negative fitted term coefficients.
	AllowNegative bool
	// NoiseFloor is a cross-validated SMAPE level (percent) below which the
	// constant model is accepted without searching for growth terms: data
	// that the mean already explains to within the measurement noise must
	// not be modeled as growth (Extra-P's noise guard). Default 3.
	NoiseFloor float64
	// MinPoints is the minimal number of distinct coordinates per parameter
	// (the paper's rule of thumb is 5). Fits with fewer points return
	// ErrTooFewPoints unless MinPoints is lowered explicitly.
	MinPoints int
	// reference forces the slow reference fitting path: per-fold hypothesis
	// refits that rebuild design matrices and re-evaluate basis functions
	// from scratch. The optimized path (shared basis columns, pooled QR
	// scratch) is pinned byte-identical to it by
	// TestOptimizedFitMatchesReference; only tests and benchmarks set this.
	reference bool
}

// DefaultOptions returns the options used throughout the paper's evaluation.
func DefaultOptions() *Options {
	return &Options{
		PolyExponents: pmnf.DefaultPolyExponents(),
		LogExponents:  pmnf.DefaultLogExponents(),
		Collectives:   map[string]bool{},
		MaxTerms:      2,
		Improvement:   0.05,
		NoiseFloor:    3,
		MinPoints:     5,
	}
}

// ErrTooFewPoints indicates that a fit was attempted with fewer distinct
// measurement coordinates than Options.MinPoints.
var ErrTooFewPoints = errors.New("modeling: too few distinct measurement points")

// Measurement is one measured configuration: a coordinate per model
// parameter, and one or more repeated observations of the metric.
type Measurement struct {
	Coords []float64 `json:"coords"`
	Values []float64 `json:"values"`
}

// Mean returns the mean of the repeated observations.
func (m Measurement) Mean() float64 { return mathx.Mean(m.Values) }

// Median returns the median of the repeated observations. The paper models
// the median for the locality metric (§II-B).
func (m Measurement) Median() float64 { return mathx.Median(m.Values) }

// ModelInfo is a fitted model together with its quality statistics.
type ModelInfo struct {
	Model *pmnf.Model
	// CVScore is the leave-one-out cross-validated SMAPE (percent) of the
	// winning hypothesis.
	CVScore float64
	// SMAPE is the in-sample SMAPE (percent).
	SMAPE float64
	// RSquared is the in-sample coefficient of determination.
	RSquared float64
	// RelErrors holds the per-measurement relative errors (fractions) of
	// the final model on its input data; this feeds the paper's Figure 3.
	RelErrors []float64
	// CVFolds holds the per-point leave-one-out diagnostics of the winning
	// model: for each aggregated measurement point, the SMAPE contribution
	// (percent, 0–200) of predicting it from a model fitted on the other
	// points. Points the model struggles to predict from its neighbours are
	// exactly where more measurements would improve confidence; adaptive
	// experiment design (internal/adaptive) scores candidate configurations
	// by interpolating these errors.
	CVFolds []CVFold
}

// CVFold is the leave-one-out diagnostic for one aggregated measurement
// point. Err is the SMAPE contribution (percent) of the held-out
// prediction; folds whose refit failed (rank deficiency or a sign-constraint
// violation) are charged the worst-case 200, mirroring cvScore's penalty.
type CVFold struct {
	Coords []float64 `json:"coords"`
	Err    float64   `json:"err"`
}

// hypothesis is a model shape whose coefficients are to be fitted: a list of
// per-parameter factor tuples (one factor per parameter per term).
type hypothesis struct {
	factors [][]pmnf.Factor // terms × params
}

// fitHypothesis fits constant + term coefficients by least squares and
// returns the resulting model. It returns an error when the design matrix is
// rank deficient or coefficients violate the sign constraint.
func fitHypothesis(params []string, h hypothesis, pts []point, allowNegative bool) (*pmnf.Model, error) {
	rows := len(pts)
	cols := 1 + len(h.factors)
	if rows < cols {
		return nil, fmt.Errorf("modeling: %d points cannot determine %d coefficients", rows, cols)
	}
	a := mathx.NewMatrix(rows, cols)
	b := make([]float64, rows)
	for i, pt := range pts {
		a.Set(i, 0, 1)
		for k, term := range h.factors {
			v := 1.0
			for l, f := range term {
				v *= f.Eval(pt.x[l])
			}
			a.Set(i, 1+k, v)
		}
		b[i] = pt.y
	}
	coef, err := mathx.LeastSquares(a, b)
	if err == nil {
		err = checkCoef(coef, allowNegative)
	}
	if err != nil {
		return nil, err
	}
	return h.model(params, coef), nil
}

// model is the fitted model of h: coef[0] is the constant, coef[1+t] the
// coefficient of term t.
func (h hypothesis) model(params []string, coef []float64) *pmnf.Model {
	m := &pmnf.Model{Params: append([]string(nil), params...), Constant: coef[0]}
	for t, term := range h.factors {
		m.AddTerm(pmnf.Term{Coeff: coef[1+t], Factors: append([]pmnf.Factor(nil), term...)})
	}
	return m
}

// point is an aggregated sample: one coordinate vector, one value.
type point struct {
	x []float64
	y float64
}

// aggregate flattens measurements into one point per coordinate using the
// supplied aggregator (mean for most metrics, median for locality).
func aggregate(ms []Measurement, agg func(Measurement) float64) []point {
	pts := make([]point, 0, len(ms))
	for _, m := range ms {
		if len(m.Values) == 0 {
			continue
		}
		pts = append(pts, point{x: append([]float64(nil), m.Coords...), y: agg(m)})
	}
	return pts
}

// cvScoreReference computes the leave-one-out SMAPE of a hypothesis shape
// over pts by refitting the hypothesis per fold from scratch: fresh design
// matrices, fresh basis-function evaluations, fresh scratch per fold. It is
// the slow reference implementation the optimized searcher.cvScoreFast is
// pinned byte-identical to, and reports the number of folds whose fit
// failed alongside the score of the surviving folds.
func cvScoreReference(params []string, h hypothesis, pts []point, allowNegative bool) (float64, int, error) {
	samples := make([]stats.Sample, len(pts))
	for i, pt := range pts {
		samples[i] = stats.Sample{X: pt.x, Y: pt.y}
	}
	fit := func(train []stats.Sample) (stats.Predictor, error) {
		tp := make([]point, len(train))
		for i, s := range train {
			tp[i] = point{x: s.X, y: s.Y}
		}
		m, err := fitHypothesis(params, h, tp, allowNegative)
		if err != nil {
			return nil, err
		}
		return func(x []float64) float64 { return m.Eval(x...) }, nil
	}
	return stats.LeaveOneOutSMAPEDetail(samples, fit)
}

// constantCV computes the leave-one-out SMAPE of the constant (mean) model.
func constantCV(pts []point) float64 {
	samples := make([]stats.Sample, len(pts))
	for i, pt := range pts {
		samples[i] = stats.Sample{X: pt.x, Y: pt.y}
	}
	score, err := stats.LeaveOneOutSMAPE(samples, func(train []stats.Sample) (stats.Predictor, error) {
		ys := make([]float64, len(train))
		for i, s := range train {
			ys[i] = s.Y
		}
		m := mathx.Mean(ys)
		return func([]float64) float64 { return m }, nil
	})
	if err != nil {
		return math.Inf(1)
	}
	return score
}

// finishInfo computes in-sample quality statistics for a final model,
// including the per-point leave-one-out diagnostics (CVFolds).
func finishInfo(m *pmnf.Model, pts []point, cv float64, opts *Options) *ModelInfo {
	pred := make([]float64, len(pts))
	obs := make([]float64, len(pts))
	for i, pt := range pts {
		pred[i] = m.Eval(pt.x...)
		obs[i] = pt.y
	}
	return &ModelInfo{
		Model:     m,
		CVScore:   cv,
		SMAPE:     stats.SMAPE(pred, obs),
		RSquared:  stats.RSquared(pred, obs),
		RelErrors: stats.RelativeErrors(pred, obs),
		CVFolds:   looFolds(m, pts, opts),
	}
}

// looFolds computes the per-point leave-one-out diagnostics for a final
// model: one fold per aggregated point, refitting the winner's term shape on
// the other points and scoring the held-out prediction. It always runs the
// optimized fold loop, which TestCVFoldsMatchReferenceRefits pins bit for
// bit to per-fold fitHypothesis refits, and is deterministic for a given
// point series.
func looFolds(m *pmnf.Model, pts []point, opts *Options) []CVFold {
	folds := make([]CVFold, len(pts))
	for i, pt := range pts {
		folds[i].Coords = append([]float64(nil), pt.x...)
	}
	n := len(pts)
	if n < 2 {
		return folds // a lone point has no held-out fold
	}
	if len(m.Terms) == 0 {
		// Constant model: the held-out prediction is the mean of the rest.
		sum := 0.0
		for _, pt := range pts {
			sum += pt.y
		}
		for i, pt := range pts {
			folds[i].Err = pointSMAPE((sum-pt.y)/float64(n-1), pt.y)
		}
		return folds
	}
	h := hypothesis{factors: make([][]pmnf.Factor, 0, len(m.Terms))}
	for _, t := range m.Terms {
		h.factors = append(h.factors, t.Factors)
	}
	if n-1 < 1+len(h.factors) {
		// Every fold would be underdetermined; charge them all the
		// worst-case SMAPE, mirroring cvScore's failed-fold penalty.
		for i := range folds {
			folds[i].Err = 200
		}
		return folds
	}
	s := newSearcher(m.Params, pts, opts)
	defer s.release()
	s.loo(h, func(i int, pred float64, err error) {
		if err != nil {
			folds[i].Err = 200 // a failed refit, charged as cvScore charges it
			return
		}
		folds[i].Err = pointSMAPE(pred, pts[i].y)
	})
	return folds
}

// pointSMAPE is one term of stats.SMAPE: the symmetric percentage error of a
// single (prediction, observation) pair, in [0, 200].
func pointSMAPE(pred, obs float64) float64 {
	ap, ao := math.Abs(pred), math.Abs(obs)
	scale := math.Max(ap, ao)
	if scale == 0 {
		return 0
	}
	num := math.Abs(pred - obs)
	den := ap + ao
	if scale > math.MaxFloat64/4 {
		num = math.Abs(pred/scale - obs/scale)
		den = ap/scale + ao/scale
	}
	return math.Min(200*num/den, 200)
}

// relativeSpread returns (max-min)/max|y| of the raw values, 0 for empty
// input. The spread is computed on raw values, not absolute values: taking
// |y| first would fold sign-varying data like {-5, 5} onto one magnitude,
// report spread 0, and short-circuit the search to the constant model even
// though the data varies maximally. Sign-varying series occur with
// AllowNegative fits and with fault-perturbed counters. For all-nonnegative
// data the result is unchanged (max|y| is then the max itself).
func relativeSpread(pts []point) float64 {
	if len(pts) == 0 {
		return 0
	}
	ys := make([]float64, len(pts))
	for i, p := range pts {
		ys[i] = p.y
	}
	lo, hi := mathx.MinMax(ys)
	denom := math.Max(math.Abs(lo), math.Abs(hi))
	if denom == 0 {
		return 0
	}
	return (hi - lo) / denom
}

// distinctCoords counts distinct values of coordinate l.
func distinctCoords(pts []point, l int) int {
	seen := map[float64]bool{}
	for _, p := range pts {
		seen[p.x[l]] = true
	}
	return len(seen)
}

func sortPoints(pts []point) {
	sort.SliceStable(pts, func(i, j int) bool {
		a, b := pts[i].x, pts[j].x
		for l := range a {
			if a[l] != b[l] {
				return a[l] < b[l]
			}
		}
		return false
	})
}

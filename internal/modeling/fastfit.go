package modeling

// The fitting hot path. A searcher carries the per-series state shared by
// every hypothesis evaluation of one fit: the basis-column cache, a pooled
// QR workspace, and grow-only scratch for fold design matrices. Scoring a
// hypothesis by leave-one-out cross-validation then costs n small QR solves
// over matrices assembled from cached columns — no basis-function
// re-evaluation, no per-fold allocation — instead of n independent
// fitHypothesis calls that each rebuild the design matrix from
// math.Pow/math.Log2 calls and allocate fresh scratch. Each step is written
// once: termColumn builds a term's product column (for the design matrices
// and the pair prescreen), design lays out the full design matrix, and loo
// runs the folds behind both the CV score and the per-point CVFolds.
//
// The optimized path is pinned byte-identical to the reference path
// (Options.reference): fold design matrices contain the same bits (cached
// factor evaluations multiplied in the same order as fitHypothesis), the
// QR solver performs the same arithmetic (mathx.QRSolver is the same
// algorithm LeastSquares runs, and its power-of-two column equilibration
// cannot change well-conditioned results), and held-out predictions
// multiply coefficient and factor values in exactly the order
// pmnf.Model.Eval uses. TestOptimizedFitMatchesReference and
// TestCVFoldsMatchReferenceRefits enforce this bit for bit across seeded
// random series.

import (
	"errors"
	"fmt"
	"math"

	"extrareq/internal/mathx"
	"extrareq/internal/pmnf"
	"extrareq/internal/stats"
)

var (
	errNonFiniteCoeff = errors.New("modeling: non-finite coefficient")
	errNegativeCoeff  = errors.New("modeling: negative term coefficient")
)

// checkCoef validates fitted coefficients the way fitHypothesis always has:
// every coefficient must be finite, and term coefficients (all but the
// constant) must be nonnegative unless the caller allows otherwise.
func checkCoef(coef []float64, allowNegative bool) error {
	for _, c := range coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return errNonFiniteCoeff
		}
	}
	if !allowNegative {
		for k := 1; k < len(coef); k++ {
			if coef[k] < 0 {
				return errNegativeCoeff
			}
		}
	}
	return nil
}

// searcher is the per-series fitting context. It is not safe for concurrent
// use; each fit owns one (FitAllObserved parallelizes across series, never
// within one).
type searcher struct {
	params []string
	pts    []point
	opts   *Options

	basis  *basisCache
	solver *mathx.QRSolver

	// Grow-only scratch, reused across every hypothesis of the search.
	fold        mathx.Matrix // (n-1)×k leave-one-out design matrix
	full        mathx.Matrix // n×k full design matrix
	rhs         []float64    // the observations, in point order
	foldRHS     []float64
	preds       []float64
	obs         []float64
	termScratch [][]float64 // owned storage for multi-factor product columns
	pfCols      [][]float64 // per-factor basis columns for held-out predictions
	pfStart     []int       // term t's factors are pfCols[pfStart[t]:pfStart[t+1]]
}

// newSearcher builds the fitting context for one point series. Callers must
// release() it when the search is done to return the pooled QR workspace.
func newSearcher(params []string, pts []point, opts *Options) *searcher {
	return &searcher{
		params: params,
		pts:    pts,
		opts:   opts,
		basis:  newBasisCache(pts),
		solver: mathx.GetQRSolver(),
	}
}

// release returns pooled resources. The searcher must not be used after.
func (s *searcher) release() {
	if s.solver != nil {
		mathx.PutQRSolver(s.solver)
		s.solver = nil
	}
}

// cvScore computes the leave-one-out SMAPE of a hypothesis shape and the
// number of folds whose fit failed. A non-nil error means every fold
// failed.
//
// A hypothesis with failed folds was judged only on the folds it could fit
// — an optimistic score that would let a fragile shape beat one that fits
// everywhere — so each failed fold is charged the maximum SMAPE (200) a
// real prediction could have incurred. The penalty arithmetic is applied
// only when folds actually failed, so clean hypotheses keep bit-identical
// scores across the reference and optimized paths.
func (s *searcher) cvScore(h hypothesis) (score float64, failed int, err error) {
	if s.opts.reference {
		score, failed, err = cvScoreReference(s.params, h, s.pts, s.opts.AllowNegative)
	} else {
		score, failed, err = s.cvScoreFast(h)
	}
	if err == nil && failed > 0 {
		ok := len(s.pts) - failed
		score = (score*float64(ok) + 200*float64(failed)) / float64(len(s.pts))
	}
	return score, failed, err
}

// fit fits the hypothesis's coefficients on the full point series.
func (s *searcher) fit(h hypothesis) (*pmnf.Model, error) {
	if s.opts.reference {
		return fitHypothesis(s.params, h, s.pts, s.opts.AllowNegative)
	}
	return s.fitFast(h)
}

// selectAndFit Occam-selects among the scored candidates and fits the
// winner's coefficients on the full series. Models are fitted lazily — only
// winners ever need one, so the candidate sweep allocates no models at all.
// A winner whose full fit fails (a shape can pass every leave-one-out fold
// yet hit a sign constraint on the full series) is dropped and selection
// repeats. Returns the winner, the surviving candidates, and ok=false when
// no candidate can be selected and fitted.
func (s *searcher) selectAndFit(cands []scoredHypothesis, band float64) (scoredHypothesis, []scoredHypothesis, bool) {
	for len(cands) > 0 {
		wi := occamSelect(cands, band)
		if wi < 0 {
			return scoredHypothesis{}, cands, false
		}
		m, err := s.fit(cands[wi].h)
		if err == nil {
			w := cands[wi]
			w.model = m
			return w, cands, true
		}
		cands = append(cands[:wi], cands[wi+1:]...)
	}
	return scoredHypothesis{}, cands, false
}

// termColumn returns term's product column over the series: the cached
// factor columns multiplied in parameter order, the same per-row
// multiplication sequence fitHypothesis performs, so the entries are
// bit-identical. A term with a single non-neutral factor (every term of a
// single-parameter search) returns its cached basis column itself, since
// 1·x is exact; callers must treat it as read-only. Other terms are
// multiplied out into *scratch, grown as needed.
func (s *searcher) termColumn(term []pmnf.Factor, scratch *[]float64) []float64 {
	li, nz := -1, 0
	for l, f := range term {
		if !f.IsOne() {
			nz++
			li = l
		}
	}
	if nz == 1 {
		return s.basis.column(li, term[li])
	}
	col := growFloats(*scratch, len(s.pts))
	*scratch = col
	for i := range col {
		col[i] = 1
	}
	for l, f := range term {
		if f.IsOne() {
			continue // multiplying by the neutral factor's 1.0 is exact
		}
		fc := s.basis.column(l, f)
		for i := range col {
			col[i] *= fc[i]
		}
	}
	return col
}

// design assembles h's full n×k design matrix into s.full (a column of
// ones, then one product column per term) and the observations into
// s.rhs, and lists the per-factor basis columns that held-out predictions
// multiply: term t's are s.pfCols[s.pfStart[t]:s.pfStart[t+1]], in
// parameter order, so predictions multiply in exactly the pmnf.Model.Eval
// order.
func (s *searcher) design(h hypothesis) {
	n, k := len(s.pts), 1+len(h.factors)
	s.full.Reshape(n, k)
	s.rhs = growFloats(s.rhs, n)
	for i, pt := range s.pts {
		s.full.Data[i*k] = 1
		s.rhs[i] = pt.y
	}
	for len(s.termScratch) < len(h.factors) {
		s.termScratch = append(s.termScratch, nil)
	}
	s.pfCols, s.pfStart = s.pfCols[:0], s.pfStart[:0]
	for t, term := range h.factors {
		for i, v := range s.termColumn(term, &s.termScratch[t]) {
			s.full.Data[i*k+1+t] = v
		}
		s.pfStart = append(s.pfStart, len(s.pfCols))
		for l, f := range term {
			if !f.IsOne() {
				s.pfCols = append(s.pfCols, s.basis.column(l, f))
			}
		}
	}
	s.pfStart = append(s.pfStart, len(s.pfCols))
}

// loo runs h's leave-one-out folds. Fold i is two contiguous block copies
// of the full design (the rows before and after row i) into the pooled
// fold matrix, solved in the reusable QR workspace; visit then gets the
// prediction for point i, or the error of a fold whose solve or
// coefficient check failed. Callers guarantee n-1 >= 1+len(h.factors).
func (s *searcher) loo(h hypothesis, visit func(i int, pred float64, err error)) {
	s.design(h)
	n, k := len(s.pts), 1+len(h.factors)
	s.fold.Reshape(n-1, k)
	s.foldRHS = growFloats(s.foldRHS, n-1)
	foldRHS := s.foldRHS
	for i := 0; i < n; i++ {
		copy(s.fold.Data[:i*k], s.full.Data[:i*k])
		copy(s.fold.Data[i*k:], s.full.Data[(i+1)*k:])
		copy(foldRHS[:i], s.rhs[:i])
		copy(foldRHS[i:], s.rhs[i+1:])
		coef, err := s.solver.SolveDestructive(&s.fold, foldRHS)
		if err == nil {
			err = checkCoef(coef, s.opts.AllowNegative)
		}
		if err != nil {
			visit(i, 0, err)
			continue
		}
		// Predict the held-out point with the same multiplication and
		// accumulation order as pmnf.Model.Eval: constant first, then per
		// term coefficient × factor values in parameter order.
		pred := coef[0]
		for t := range h.factors {
			v := coef[1+t]
			for _, col := range s.pfCols[s.pfStart[t]:s.pfStart[t+1]] {
				v *= col[i]
			}
			pred += v
		}
		visit(i, pred, nil)
	}
}

// cvScoreFast is the optimized leave-one-out scorer: the SMAPE of the
// folds that fit, over the basis cache and the pooled QR workspace.
func (s *searcher) cvScoreFast(h hypothesis) (float64, int, error) {
	n := len(s.pts)
	if k := 1 + len(h.factors); n-1 < k {
		// Every leave-one-out fold would fail fitHypothesis's rows >= cols
		// check; mirror the reference outcome without doing the work.
		return math.NaN(), n, fmt.Errorf("modeling: %d points cannot determine %d coefficients", n-1, k)
	}
	s.preds, s.obs = s.preds[:0], s.obs[:0]
	failed := 0
	var lastErr error
	s.loo(h, func(i int, pred float64, err error) {
		if err != nil {
			failed++
			lastErr = err
			return
		}
		s.preds = append(s.preds, pred)
		s.obs = append(s.obs, s.pts[i].y)
	})
	if len(s.obs) == 0 {
		return math.NaN(), failed, lastErr
	}
	return stats.SMAPE(s.preds, s.obs), failed, nil
}

// fitFast fits the hypothesis on the full series using the cached term
// columns and the pooled QR workspace; it is fitHypothesis minus the
// basis-function evaluations and allocations.
func (s *searcher) fitFast(h hypothesis) (*pmnf.Model, error) {
	if n, k := len(s.pts), 1+len(h.factors); n < k {
		return nil, fmt.Errorf("modeling: %d points cannot determine %d coefficients", n, k)
	}
	s.design(h)
	coef, err := s.solver.SolveDestructive(&s.full, s.rhs)
	if err == nil {
		err = checkCoef(coef, s.opts.AllowNegative)
	}
	if err != nil {
		return nil, err
	}
	return h.model(s.params, coef), nil
}

// growFloats returns a slice of length n, reusing buf's storage when large
// enough. Contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

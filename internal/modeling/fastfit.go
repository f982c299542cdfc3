package modeling

// The fitting hot path. A searcher carries the per-series state shared by
// every hypothesis evaluation of one fit: the basis-column cache, a pooled
// QR workspace, and grow-only scratch for fold design matrices. Scoring a
// hypothesis by leave-one-out cross-validation then costs n small QR solves
// over matrices assembled from cached columns — no basis-function
// re-evaluation, no per-fold allocation — instead of n independent
// fitHypothesis calls that each rebuild the design matrix from
// math.Pow/math.Log2 calls and allocate fresh scratch.
//
// The optimized path is pinned byte-identical to the reference path
// (Options.reference): fold design matrices contain the same bits (cached
// factor evaluations multiplied in the same order as fitHypothesis), the
// QR solver performs the same arithmetic (mathx.QRSolver is the same
// algorithm LeastSquares runs, and its power-of-two column equilibration
// cannot change well-conditioned results), and held-out predictions
// multiply coefficient and factor values in exactly the order
// pmnf.Model.Eval uses. TestOptimizedFitMatchesReference enforces this
// bit-for-bit across seeded random series.

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
	rhs         []float64
	foldRHS     []float64
	preds       []float64
	obs         []float64
	termCols    [][]float64 // per-term product columns of the current hypothesis
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

// prepareTerms fills s.termCols with one product column per term of h,
// multiplying the cached factor columns in parameter order — the same
// per-row multiplication sequence fitHypothesis performs, so the resulting
// design matrix entries are bit-identical. Terms with a single non-neutral
// factor (every term of a single-parameter search) alias the cached basis
// column directly: 1·x is exact, so no copy is needed. Aliased columns are
// read-only; multi-factor products go into searcher-owned scratch.
func (s *searcher) prepareTerms(h hypothesis) {
	n := len(s.pts)
	for len(s.termScratch) < len(h.factors) {
		s.termScratch = append(s.termScratch, nil)
	}
	s.termCols = s.termCols[:0]
	for t, term := range h.factors {
		li, nz := -1, 0
		for l, f := range term {
			if !f.IsOne() {
				nz++
				li = l
			}
		}
		if nz == 1 {
			s.termCols = append(s.termCols, s.basis.column(li, term[li]))
			continue
		}
		col := growFloats(s.termScratch[t], n)
		s.termScratch[t] = col
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
		s.termCols = append(s.termCols, col)
	}
}

// cvScoreFast is the optimized leave-one-out scorer: the hypothesis's term
// columns are assembled once from the basis cache, and every fold copies
// all-rows-but-one into the pooled fold matrix and solves in the reusable
// QR workspace.
func (s *searcher) cvScoreFast(h hypothesis) (float64, int, error) {
	n := len(s.pts)
	k := 1 + len(h.factors)
	if n-1 < k {
		// Every leave-one-out fold would fail fitHypothesis's rows >= cols
		// check; mirror the reference outcome without doing the work.
		return math.NaN(), n, fmt.Errorf("modeling: %d points cannot determine %d coefficients", n-1, k)
	}
	s.prepareTerms(h)
	// Hoist the per-factor basis columns used for held-out predictions out
	// of the fold loop (one cache lookup per factor per hypothesis instead
	// of per fold). The flattened list preserves (term, parameter) order, so
	// predictions below multiply in exactly the pmnf.Model.Eval order.
	s.pfCols = s.pfCols[:0]
	s.pfStart = s.pfStart[:0]
	for _, term := range h.factors {
		s.pfStart = append(s.pfStart, len(s.pfCols))
		for l, f := range term {
			if f.IsOne() {
				continue
			}
			s.pfCols = append(s.pfCols, s.basis.column(l, f))
		}
	}
	s.pfStart = append(s.pfStart, len(s.pfCols))
	// Assemble the full n×k design matrix once; every fold is then two
	// contiguous block copies (rows before and after the held-out row).
	s.full.Reshape(n, k)
	s.rhs = growFloats(s.rhs, n)
	for i := 0; i < n; i++ {
		row := s.full.Data[i*k : (i+1)*k]
		row[0] = 1
		for t := range h.factors {
			row[1+t] = s.termCols[t][i]
		}
		s.rhs[i] = s.pts[i].y
	}
	s.fold.Reshape(n-1, k)
	s.foldRHS = growFloats(s.foldRHS, n-1)
	foldRHS := s.foldRHS
	s.preds = s.preds[:0]
	s.obs = s.obs[:0]
	failed := 0
	var lastErr error
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
			failed++
			lastErr = err
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
		s.preds = append(s.preds, pred)
		s.obs = append(s.obs, s.pts[i].y)
	}
	if len(s.obs) == 0 {
		return math.NaN(), failed, lastErr
	}
	return stats.SMAPE(s.preds, s.obs), failed, nil
}

// looFolds fills folds[i].Err with the held-out SMAPE contribution of
// leave-one-out fold i for hypothesis h, charging failed folds the
// worst-case 200. It is cvScoreFast recording per-fold errors instead of
// aggregating them; callers guarantee n-1 >= 1+len(h.factors).
func (s *searcher) looFolds(h hypothesis, folds []CVFold) {
	n := len(s.pts)
	k := 1 + len(h.factors)
	s.prepareTerms(h)
	s.pfCols = s.pfCols[:0]
	s.pfStart = s.pfStart[:0]
	for _, term := range h.factors {
		s.pfStart = append(s.pfStart, len(s.pfCols))
		for l, f := range term {
			if f.IsOne() {
				continue
			}
			s.pfCols = append(s.pfCols, s.basis.column(l, f))
		}
	}
	s.pfStart = append(s.pfStart, len(s.pfCols))
	s.full.Reshape(n, k)
	s.rhs = growFloats(s.rhs, n)
	for i := 0; i < n; i++ {
		row := s.full.Data[i*k : (i+1)*k]
		row[0] = 1
		for t := range h.factors {
			row[1+t] = s.termCols[t][i]
		}
		s.rhs[i] = s.pts[i].y
	}
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
			folds[i].Err = 200
			continue
		}
		pred := coef[0]
		for t := range h.factors {
			v := coef[1+t]
			for _, col := range s.pfCols[s.pfStart[t]:s.pfStart[t+1]] {
				v *= col[i]
			}
			pred += v
		}
		folds[i].Err = pointSMAPE(pred, s.pts[i].y)
	}
}

// fitFast fits the hypothesis on the full series using the cached term
// columns and the pooled QR workspace; it is fitHypothesis minus the
// basis-function evaluations and allocations.
func (s *searcher) fitFast(h hypothesis) (*pmnf.Model, error) {
	n := len(s.pts)
	k := 1 + len(h.factors)
	if n < k {
		return nil, fmt.Errorf("modeling: %d points cannot determine %d coefficients", n, k)
	}
	s.prepareTerms(h)
	s.full.Reshape(n, k)
	s.rhs = growFloats(s.rhs, n)
	for i := 0; i < n; i++ {
		s.full.Set(i, 0, 1)
		for t := range h.factors {
			s.full.Set(i, 1+t, s.termCols[t][i])
		}
		s.rhs[i] = s.pts[i].y
	}
	coef, err := s.solver.SolveDestructive(&s.full, s.rhs)
	if err != nil {
		return nil, err
	}
	if err := checkCoef(coef, s.opts.AllowNegative); err != nil {
		return nil, err
	}
	m := &pmnf.Model{Params: append([]string(nil), s.params...), Constant: coef[0]}
	for t, term := range h.factors {
		m.AddTerm(pmnf.Term{Coeff: coef[1+t], Factors: append([]pmnf.Factor(nil), term...)})
	}
	return m, nil
}

// productColumn fills dst with the term's product column (cached factor
// columns multiplied in parameter order) and returns it. When dst is nil
// and the term has a single non-neutral factor, the cached basis column is
// returned directly; callers must treat the result as read-only.
func (s *searcher) productColumn(dst []float64, term []pmnf.Factor) []float64 {
	if dst == nil {
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
	}
	dst = growFloats(dst, len(s.pts))
	for i := range dst {
		dst[i] = 1
	}
	for l, f := range term {
		if f.IsOne() {
			continue
		}
		fc := s.basis.column(l, f)
		for i := range dst {
			dst[i] *= fc[i]
		}
	}
	return dst
}

// growFloats returns a slice of length n, reusing buf's storage when large
// enough. Contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

package modeling

import (
	"cmp"
	"math"
	"slices"

	"extrareq/internal/mathx"
	"extrareq/internal/pmnf"
	"extrareq/internal/stats"
)

// pairSearchThreshold is the cross-validated SMAPE (percent) above which the
// beam result is considered poor enough to justify the exhaustive two-term
// search. Mixed-growth data (e.g. c1·x + c2·x²) can defeat a term-by-term
// search because no single term fits well alone; the exhaustive search
// considers all pairs jointly.
const pairSearchThreshold = 1.0

// pairPrescreen is the number of best pairs (by in-sample SMAPE) that are
// re-scored with full leave-one-out cross-validation.
const pairPrescreen = 32

// exhaustivePairSearch evaluates every unordered pair of candidate terms
// jointly. It returns the fitted model and its CV score, or ok=false when no
// valid pair was found. The prescreen stage assembles every candidate's
// basis column from the searcher's cache and solves in its pooled QR
// workspace; the surviving pairs are bounded and re-scored through the
// searcher's cvScore as far as Occam selection needs, so the prescreen
// ranking and the final selection are identical on the reference and
// optimized paths.
func exhaustivePairSearch(s *searcher, candidates [][]pmnf.Factor) (*pmnf.Model, float64, bool) {
	pts, opts := s.pts, s.opts
	n := len(pts)
	// A pair hypothesis fits 3 coefficients on (n-1)-row leave-one-out
	// folds. Requiring n >= 6 keeps at least 2 residual degrees of freedom
	// per fold; below that the cross-validation score of a joint two-term
	// fit measures noise, not shape (the same under-determination the
	// failed-fold penalty guards against).
	if n < 6 {
		return nil, 0, false
	}
	// The basis column of every candidate over all points. The optimized
	// path reads the shared factor-column cache; the reference path
	// re-evaluates the factors directly, as the pre-optimization code did.
	cols := make([][]float64, len(candidates))
	for c, cand := range candidates {
		if opts.reference {
			col := make([]float64, n)
			for i, pt := range pts {
				v := 1.0
				for l, f := range cand {
					v *= f.Eval(pt.x[l])
				}
				col[i] = v
			}
			cols[c] = col
		} else {
			var own []float64
			cols[c] = s.termColumn(cand, &own)
		}
	}
	obs := make([]float64, n)
	for i, pt := range pts {
		obs[i] = pt.y
	}

	type pair struct {
		i, j  int
		smape float64
	}
	var best []pair
	a := mathx.NewMatrix(n, 3)
	pred := make([]float64, n)
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			for r := 0; r < n; r++ {
				a.Set(r, 0, 1)
				a.Set(r, 1, cols[i][r])
				a.Set(r, 2, cols[j][r])
			}
			var coef []float64
			var err error
			if opts.reference {
				// The reference prescreen pays the pre-optimization cost: a
				// fresh QR workspace (and result copy) per pair.
				coef, err = mathx.LeastSquares(a, obs)
			} else {
				// obs is shared across pairs and must survive the solve,
				// so the non-destructive variant is the right one here.
				coef, err = s.solver.Solve(a, obs)
			}
			if err != nil {
				continue
			}
			if !opts.AllowNegative && (coef[1] < 0 || coef[2] < 0) {
				continue
			}
			for r := 0; r < n; r++ {
				pred[r] = coef[0] + coef[1]*cols[i][r] + coef[2]*cols[j][r]
			}
			sm := stats.SMAPE(pred, obs)
			if math.IsNaN(sm) {
				continue
			}
			best = append(best, pair{i, j, sm})
		}
	}
	if len(best) == 0 {
		return nil, 0, false
	}
	slices.SortFunc(best, func(x, y pair) int { return cmp.Compare(x.smape, y.smape) })
	if len(best) > pairPrescreen {
		best = best[:pairPrescreen]
	}

	shape := func(i int, h *hypothesis) {
		h.factors = append(h.factors[:0], candidates[best[i].i], candidates[best[i].j])
	}
	r := s.newRound(len(best), shape)
	for i := range best {
		shape(i, &s.hyp)
		r.add(s.boundTerms(s.hyp.factors))
	}
	r.ready()
	w, ok := s.selectAndFit(r, opts.Improvement)
	if !ok {
		return nil, 0, false
	}
	return w.model, w.score, true
}

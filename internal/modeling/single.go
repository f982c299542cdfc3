package modeling

import (
	"cmp"
	"math"
	"slices"

	"extrareq/internal/pmnf"
)

// singleTermCandidates enumerates all one-parameter factor candidates.
func singleTermCandidates(param string, opts *Options) [][]pmnf.Factor {
	factors := pmnf.SingleFactors(opts.PolyExponents, opts.LogExponents, opts.Collectives[param])
	out := make([][]pmnf.Factor, len(factors))
	for i, f := range factors {
		out[i] = []pmnf.Factor{f}
	}
	return out
}

// beamWidth is the number of partial hypotheses carried from one term-count
// round to the next. A pure greedy search (width 1) can lock in a first term
// that blocks the true second term via the non-negativity constraint; a
// modest beam avoids that while keeping the search cheap.
const beamWidth = 8

// fitIterativeHarvest is the iterative-refinement search over term
// candidates: start from the constant model and grow hypotheses one term at
// a time, carrying a beam of the cross-validation best partial hypotheses,
// while improvement stays above the threshold. candidates is the set of
// term shapes (one factor per model parameter).
//
// Besides the fit it returns the round-one Occam winner — the fitted best
// single-term model, exactly what a separate MaxTerms=1 search would
// return — or nil when the constant model won round one. FitMulti harvests
// its factors for the combination hypothesis space without paying for a
// second search.
func fitIterativeHarvest(params []string, pts []point, candidates [][]pmnf.Factor, opts *Options) (*ModelInfo, *pmnf.Model, error) {
	// Near-constant data short-circuits to the constant model; this mirrors
	// Extra-P's noise guard and avoids fitting growth to jitter.
	if relativeSpread(pts) < 1e-9 {
		m := pmnf.NewConstant(meanY(pts), params...)
		return finishInfo(m, pts, 0, opts), nil, nil
	}

	bestScore := constantCV(pts)
	bestModel := pmnf.NewConstant(meanY(pts), params...)

	// Noise guard: when the constant model already explains the data to
	// within the noise floor, searching for growth would only fit jitter.
	if bestScore < opts.NoiseFloor {
		return finishInfo(bestModel, pts, bestScore, opts), nil, nil
	}

	s := newSearcher(params, pts, opts)
	defer s.release()

	var roundOne *pmnf.Model
	beam := []scoredHypothesis{{score: bestScore, model: bestModel}}
	for round := 0; round < opts.MaxTerms; round++ {
		var next []scoredHypothesis
		for _, e := range beam {
			for _, cand := range candidates {
				if containsTerm(e.h.factors, cand) {
					continue
				}
				if len(pts) <= len(e.h.factors)+2 {
					continue // not enough points for LOO refits
				}
				factors := make([][]pmnf.Factor, 0, len(e.h.factors)+1)
				factors = append(factors, e.h.factors...)
				h := hypothesis{factors: append(factors, cand)}
				// cvScore charges failed folds the worst-case SMAPE, so
				// shapes that only fit their easy folds cannot win on an
				// optimistic score.
				score, _, err := s.cvScore(h)
				if err != nil || math.IsNaN(score) {
					continue
				}
				next = append(next, scoredHypothesis{h: h, score: score})
			}
		}
		if len(next) == 0 {
			break
		}
		// Round winner: the simplest hypothesis among those statistically
		// tied with the best score. Coefficients are fitted lazily — only
		// the winner needs a model.
		winner, remaining, ok := s.selectAndFit(next, opts.Improvement)
		next = remaining
		if !ok || !acceptScore(winner.score, bestScore, opts.Improvement) {
			break
		}
		bestScore = winner.score
		bestModel = winner.model
		if round == 0 {
			roundOne = winner.model
		}
		// The beam carries the lowest-scoring candidates into the next
		// round (plus the Occam winner, which may rank below the cut).
		slices.SortStableFunc(next, func(a, b scoredHypothesis) int { return cmp.Compare(a.score, b.score) })
		if len(next) > beamWidth {
			next = next[:beamWidth]
		}
		beam = next
		if !beamContains(beam, winner) {
			beam[len(beam)-1] = winner
		}
		if bestScore < 1e-9 {
			break // exact fit; additional terms cannot help
		}
	}
	// Mixed-growth data can defeat the term-by-term beam; when the result is
	// still poor, search all candidate pairs jointly.
	if bestScore > pairSearchThreshold && opts.MaxTerms >= 2 {
		if m, score, ok := exhaustivePairSearch(s, candidates); ok &&
			acceptScore(score, bestScore, opts.Improvement) {
			bestModel, bestScore = m, score
		}
	}
	return finishInfo(bestModel, pts, bestScore, opts), roundOne, nil
}

// acceptScore reports whether a new CV score is a significant improvement
// over the incumbent.
func acceptScore(next, incumbent, improvement float64) bool {
	if math.IsInf(incumbent, 1) {
		return !math.IsInf(next, 1)
	}
	if incumbent < 1e-9 {
		return false
	}
	return next < incumbent*(1-improvement)
}

// beamContains reports whether the beam already holds the given hypothesis
// (compared by term shapes).
func beamContains(beam []scoredHypothesis, e scoredHypothesis) bool {
	for _, b := range beam {
		if len(b.h.factors) != len(e.h.factors) {
			continue
		}
		same := true
		for i := range b.h.factors {
			if !sameTerm(b.h.factors[i], e.h.factors[i]) {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

func sameTerm(a, b []pmnf.Factor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsTerm(terms [][]pmnf.Factor, cand []pmnf.Factor) bool {
	for _, t := range terms {
		same := true
		for l := range t {
			if t[l] != cand[l] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

func meanY(pts []point) float64 {
	ys := make([]float64, len(pts))
	for i, p := range pts {
		ys[i] = p.y
	}
	if len(ys) == 0 {
		return 0
	}
	s := 0.0
	for _, y := range ys {
		s += y
	}
	return s / float64(len(ys))
}

package modeling

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"extrareq/internal/pmnf"
)

// FitMulti fits a PMNF model (Equation 2) over params to measurements,
// aggregating repeated observations with the mean (a FitTask with AggMedian
// selects the median). Every parameter needs Options.MinPoints distinct
// values, or the fit returns ErrTooFewPoints. A single parameter is fitted
// by iterative term addition over the whole series (§II-C).
//
// For several parameters, following the paper (§II-C) and the fast
// multi-parameter modeling approach of Extra-P, the procedure is:
//
//  1. For each parameter, fit a single-parameter model on the subset of
//     measurements where all other parameters are held at their smallest
//     observed value (the "baseline line" through the measurement grid).
//  2. Combine the non-constant terms of those single-parameter models both
//     additively and multiplicatively into expanded-normal-form hypotheses.
//  3. Refit every hypothesis's coefficients on the full measurement grid and
//     select the winner by leave-one-out cross-validated SMAPE, preferring
//     fewer terms among statistically indistinguishable hypotheses.
func FitMulti(params []string, ms []Measurement, opts *Options) (*ModelInfo, error) {
	return fitMulti(params, ms, AggMean, opts, nil)
}

// fitMulti is FitMulti aggregating with agg and taking step 1's
// baseline-line searches from cache (nil: search every line). A line's
// harvest is a pure function of what lineFingerprint hashes, so a memoized
// line yields the same model, bit for bit, as a fresh search.
func fitMulti(params []string, ms []Measurement, agg Agg, opts *Options, cache *FitCache) (*ModelInfo, error) {
	if opts == nil {
		opts = DefaultOptions()
	}
	if len(params) == 0 {
		return nil, fmt.Errorf("modeling: no parameters")
	}
	pts := aggregate(ms, agg.fn())
	for _, pt := range pts {
		if len(pt.x) != len(params) {
			return nil, fmt.Errorf("modeling: measurement arity %d does not match %d parameters", len(pt.x), len(params))
		}
	}
	sortPoints(pts)
	for l, p := range params {
		if got := distinctCoords(pts, l); got < opts.MinPoints {
			return nil, fmt.Errorf("%w: %d distinct values of %s, need %d", ErrTooFewPoints, got, p, opts.MinPoints)
		}
	}
	if len(params) == 1 {
		info, _, err := fitIterativeHarvest(params, pts, singleTermCandidates(params[0], opts), opts)
		return info, err
	}

	// Step 1: single-parameter models along baseline lines.
	perParam := make([][]pmnf.Factor, len(params)) // non-constant factors per param
	for l := range params {
		line := baselineLine(pts, l)
		lineOpts := *opts
		lineOpts.MinPoints = min(opts.MinPoints, distinctCoords(line, 0))
		fs, err := cache.lineFactors(params[l], line, &lineOpts)
		if err != nil {
			return nil, fmt.Errorf("modeling: single-parameter model for %s: %w", params[l], err)
		}
		perParam[l] = fs
	}

	// Step 2: build combination hypotheses.
	hyps := combinationHypotheses(len(params), perParam)
	if len(hyps) == 0 {
		m := pmnf.NewConstant(meanY(pts), params...)
		return finishInfo(m, pts, constantCV(pts), opts), nil
	}

	// Step 3: evaluate every hypothesis and Occam-select the winner. One
	// searcher serves the whole candidate sweep: every hypothesis reuses
	// the same cached basis columns and pooled QR scratch.
	s := newSearcher(params, pts, opts)
	defer s.release()
	var cands []scoredHypothesis
	for _, h := range hyps {
		if len(pts) <= len(h.factors)+1 {
			continue
		}
		score, _, err := s.cvScore(h)
		if err != nil || math.IsNaN(score) {
			continue
		}
		cands = append(cands, scoredHypothesis{h: h, score: score})
	}
	best, _, ok := s.selectAndFit(cands, opts.Improvement)
	if !ok {
		m := pmnf.NewConstant(meanY(pts), params...)
		return finishInfo(m, pts, constantCV(pts), opts), nil
	}
	// A constant model still wins if no hypothesis significantly beats it,
	// or if the constant already explains the grid to within the noise
	// floor.
	if cc := constantCV(pts); cc < opts.NoiseFloor ||
		(!acceptScore(best.score, cc, opts.Improvement) && relativeSpread(pts) < 0.05) {
		m := pmnf.NewConstant(meanY(pts), params...)
		return finishInfo(m, pts, cc, opts), nil
	}
	return finishInfo(best.model, pts, best.score, opts), nil
}

// harvestLine is step 1 of a multi-parameter fit for one parameter: the
// distinct non-constant factors of the single-parameter model fitted along
// the parameter's baseline line, in harvest order.
func harvestLine(param string, line []point, opts *Options) ([]pmnf.Factor, error) {
	var fs []pmnf.Factor
	add := func(m *pmnf.Model) {
		for _, t := range m.Terms {
			if t.Coeff == 0 || t.Factors[0].IsOne() {
				continue
			}
			if !containsFactor(fs, t.Factors[0]) {
				fs = append(fs, t.Factors[0])
			}
		}
	}
	info, roundOne, err := fitIterativeHarvest([]string{param}, line, singleTermCandidates(param, opts), opts)
	if err != nil {
		return nil, err
	}
	add(info.Model)
	// The combination hypothesis space is only as good as the factor pool
	// harvested here, and a multi-term winner on a short noisy baseline can
	// be an artifact of that line's noise. Harvest the best single-term
	// shape as well — the factor that explains the line on its own (the
	// round-one Occam winner of the same search) — and let the full-grid
	// cross-validation in step 3 arbitrate between shapes.
	if roundOne != nil {
		add(roundOne)
	}
	return fs, nil
}

// baselineLine extracts the 1-D slice of points along parameter l where all
// other coordinates are at the most common (preferring smallest) profile.
func baselineLine(pts []point, l int) []point {
	// Group points by their "other coordinates" key; pick the group with the
	// most points, breaking ties toward smaller coordinates.
	type group struct {
		key  string
		pts  []point
		sum  float64
		seen map[float64]bool
	}
	groups := map[string]*group{}
	for _, pt := range pts {
		key := ""
		sum := 0.0
		for i, c := range pt.x {
			if i == l {
				continue
			}
			key += fmt.Sprintf("%v|", c)
			sum += c
		}
		g, ok := groups[key]
		if !ok {
			g = &group{key: key, sum: sum, seen: map[float64]bool{}}
			groups[key] = g
		}
		if !g.seen[pt.x[l]] {
			g.seen[pt.x[l]] = true
			g.pts = append(g.pts, point{x: []float64{pt.x[l]}, y: pt.y})
		}
	}
	var best *group
	for _, g := range groups {
		if best == nil || len(g.pts) > len(best.pts) ||
			(len(g.pts) == len(best.pts) && g.sum < best.sum) {
			best = g
		}
	}
	if best == nil {
		return nil
	}
	line := best.pts
	sortPoints(line)
	return line
}

// combinationHypotheses builds the expanded-PMNF candidate set from the
// per-parameter factor lists: additive, multiplicative (cross products of
// one factor per contributing parameter), and hybrid combinations.
func combinationHypotheses(nParams int, perParam [][]pmnf.Factor) []hypothesis {
	contributing := []int{}
	for l, fs := range perParam {
		if len(fs) > 0 {
			contributing = append(contributing, l)
		}
	}
	if len(contributing) == 0 {
		return nil
	}

	// Single terms: one per factor per parameter, padded with One.
	singles := [][]pmnf.Factor{}
	for _, l := range contributing {
		for _, f := range perParam[l] {
			term := neutralTerm(nParams)
			term[l] = f
			singles = append(singles, term)
		}
	}

	if len(contributing) == 1 {
		// Only one parameter varies: the candidates are the additive
		// combinations of its factors. Every nonempty subset is offered
		// (the pool holds at most a few factors), not just the full sum —
		// harvested factors can be collinear or demand a negative
		// coefficient jointly, and the full sum alone would then leave no
		// viable hypothesis at all.
		if len(singles) > 8 {
			return []hypothesis{{factors: singles}} // keep 2^k enumerable
		}
		var hyps []hypothesis
		for mask := 1; mask < 1<<len(singles); mask++ {
			var sel [][]pmnf.Factor
			for i := range singles {
				if mask&(1<<i) != 0 {
					sel = append(sel, singles[i])
				}
			}
			hyps = append(hyps, hypothesis{factors: sel})
		}
		return hyps
	}

	// Products: cross product choosing one factor from each contributing
	// parameter.
	products := [][]pmnf.Factor{neutralTerm(nParams)}
	for _, l := range contributing {
		var next [][]pmnf.Factor
		for _, base := range products {
			for _, f := range perParam[l] {
				term := append([]pmnf.Factor(nil), base...)
				term[l] = f
				next = append(next, term)
			}
		}
		products = next
	}

	var hyps []hypothesis
	// Per-selection hypotheses: pick exactly one factor per contributing
	// parameter (product p of the selection) and combine it with the
	// selection's single-parameter terms. These small hypotheses avoid the
	// collinearity of the all-terms combinations and guarantee at least one
	// well-conditioned candidate per structural shape.
	for _, prod := range products {
		sel := make([][]pmnf.Factor, 0, len(contributing))
		for _, l := range contributing {
			term := neutralTerm(nParams)
			term[l] = prod[l]
			sel = append(sel, term)
		}
		// Multiplicative: c0 + c1·Π f_l.
		hyps = append(hyps, hypothesis{factors: [][]pmnf.Factor{prod}})
		// Additive: c0 + Σ c_l·f_l.
		hyps = append(hyps, hypothesis{factors: sel})
		// Product plus each single, and product plus all singles.
		for _, s := range sel {
			hyps = append(hyps, hypothesis{factors: [][]pmnf.Factor{prod, s}})
		}
		hyps = append(hyps, hypothesis{factors: append([][]pmnf.Factor{prod}, sel...)})
	}
	// All-terms hypotheses (may be rejected as ill-conditioned when factors
	// are collinear; that is fine since the per-selection set remains).
	hyps = append(hyps, hypothesis{factors: products})
	hyps = append(hyps, hypothesis{factors: singles})
	full := hypothesis{}
	full.factors = append(full.factors, products...)
	full.factors = append(full.factors, singles...)
	hyps = append(hyps, full)
	return dedupeHypotheses(hyps)
}

// dedupeHypotheses removes duplicate candidate shapes (ignoring term order).
func dedupeHypotheses(hyps []hypothesis) []hypothesis {
	seen := map[string]bool{}
	out := hyps[:0]
	for _, h := range hyps {
		keys := make([]string, len(h.factors))
		for i, term := range h.factors {
			keys[i] = fmt.Sprintf("%+v", term)
		}
		sort.Strings(keys)
		k := strings.Join(keys, ";")
		if !seen[k] {
			seen[k] = true
			out = append(out, h)
		}
	}
	return out
}

func containsFactor(fs []pmnf.Factor, f pmnf.Factor) bool {
	for _, g := range fs {
		if g == f {
			return true
		}
	}
	return false
}

func neutralTerm(nParams int) []pmnf.Factor {
	t := make([]pmnf.Factor, nParams)
	for i := range t {
		t[i] = pmnf.One
	}
	return t
}

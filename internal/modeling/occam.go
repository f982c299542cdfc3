package modeling

import (
	"math"

	"extrareq/internal/pmnf"
)

// Model selection among hypotheses whose cross-validation scores are
// statistically indistinguishable (within the improvement band) prefers the
// structurally simplest shape: measurement noise routinely lets exotic
// exponent combinations (n^0.875·log^1.5 n) tie with the true simple shape
// (n), and extrapolation quality depends on picking the simple one.

// factorComplexity scores the structural complexity of one factor: integer
// exponents are simpler than halves, which are simpler than eighths/thirds.
func factorComplexity(f pmnf.Factor) float64 {
	if f.Special != pmnf.None {
		// Slightly below a plain log/poly factor: when a named collective
		// ties with the equivalent poly-log shape, the collective is the
		// more interpretable model of a communication metric.
		return 0.75
	}
	c := 0.0
	switch {
	case f.Poly == 0:
	case f.Poly == math.Trunc(f.Poly):
		c += 1
	case f.Poly*2 == math.Trunc(f.Poly*2):
		c += 1.5
	default:
		c += 2
	}
	switch {
	case f.Log == 0:
	case f.Log == math.Trunc(f.Log):
		c += 1
	default:
		c += 1.5
	}
	return c
}

// hypothesisComplexity scores a hypothesis: one point per term plus the
// factor complexities.
func hypothesisComplexity(h hypothesis) float64 {
	c := float64(len(h.factors))
	for _, term := range h.factors {
		for _, f := range term {
			c += factorComplexity(f)
		}
	}
	return c
}

// scoredHypothesis pairs a candidate with its CV score for Occam selection
// and its position among its round's candidates.
type scoredHypothesis struct {
	h     hypothesis
	score float64
	model *pmnf.Model
	idx   int
}

// occamSlack is the band's absolute slack: cross-validated SMAPE
// differences below a quarter of a point are measurement noise, not
// evidence for a more exotic shape.
const occamSlack = 0.25

// occamLimit is the highest score inside the band of the best score.
func occamLimit(minScore, band float64) float64 {
	return minScore*(1+band) + occamSlack
}

// occamSelect returns the index of the winning candidate: the structurally
// simplest among those whose score is within the relative band of the best
// score (ties broken by lower score). It returns -1 for an empty slice.
func occamSelect(cands []scoredHypothesis, band float64) int {
	if len(cands) == 0 {
		return -1
	}
	minScore := math.Inf(1)
	for _, c := range cands {
		if c.score < minScore {
			minScore = c.score
		}
	}
	// The band is relative, plus a small absolute slack.
	limit := occamLimit(minScore, band)
	best := -1
	var bestC, bestS float64
	for i, c := range cands {
		if c.score > limit {
			continue
		}
		cc := hypothesisComplexity(c.h)
		if best == -1 || cc < bestC || (cc == bestC && c.score < bestS) {
			best, bestC, bestS = i, cc, c.score
		}
	}
	return best
}

package modeling

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"extrareq/internal/pmnf"
)

// boundSeries is one point series of the bound corpus.
type boundSeries struct {
	name   string
	params []string
	pts    []point
}

// randomTerm draws one PMNF term shape x^a·log2^b(x).
func randomTerm(rng *rand.Rand) (a, b float64) {
	polys := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 1.0 / 3}
	logs := []float64{0, 1, 2}
	a, b = polys[rng.Intn(len(polys))], logs[rng.Intn(len(logs))]
	if a == 0 && b == 0 {
		a = 1
	}
	return a, b
}

func termValue(x, a, b float64) float64 { return math.Pow(x, a) * math.Pow(math.Log2(x), b) }

// perturb applies a corpus variant to a clean value: none, 5% noise, or a
// sign flip of about a third of the values.
func perturb(rng *rand.Rand, y float64, variant string) float64 {
	switch variant {
	case "noisy":
		return y * (1 + 0.05*rng.NormFloat64())
	case "flipped":
		if rng.Intn(3) == 0 {
			return -y
		}
	}
	return y
}

// boundCorpus returns seeded series of the shapes the searches score:
// 5-point lines (a 5×5 grid's baseline lines), 6-point series, and 5×5
// grids, each clean, with 5% noise, and sign-flipped.
func boundCorpus(rng *rand.Rand) []boundSeries {
	var out []boundSeries
	for _, variant := range []string{"clean", "noisy", "flipped"} {
		for trial := 0; trial < 3; trial++ {
			for _, xs := range [][]float64{{2, 4, 8, 16, 32}, {4, 8, 16, 32, 64, 128}} {
				a1, b1 := randomTerm(rng)
				a2, b2 := randomTerm(rng)
				c0, c1, c2 := rng.Float64()*100, rng.Float64()*1000+1, rng.Float64()*10*float64(trial)
				pts := make([]point, len(xs))
				for i, x := range xs {
					y := c0 + c1*termValue(x, a1, b1) + c2*termValue(x, a2, b2)
					pts[i] = point{x: []float64{x}, y: perturb(rng, y, variant)}
				}
				out = append(out, boundSeries{fmt.Sprintf("%s/line%d/%d", variant, len(xs), trial), []string{"p"}, pts})
			}
			ap, bp := randomTerm(rng)
			an, bn := randomTerm(rng)
			product := trial%2 == 0
			var pts []point
			for _, p := range []float64{2, 4, 8, 16, 32} {
				for _, n := range []float64{128, 256, 512, 1024, 2048} {
					y := 10 + termValue(p, ap, bp)*termValue(n, an, bn)
					if !product {
						y = 10 + 3*termValue(p, ap, bp) + 2*termValue(n, an, bn)
					}
					pts = append(pts, point{x: []float64{p, n}, y: perturb(rng, y, variant)})
				}
			}
			out = append(out, boundSeries{fmt.Sprintf("%s/grid/%d", variant, trial), []string{"p", "n"}, pts})
		}
	}
	return out
}

// boundHypotheses lists the 1–3-term hypotheses the searches score on a
// series: for a single parameter every single term, every extension of
// four beam-like terms by a second, and random third terms on two pairs;
// for a grid, FitMulti's step-3 combinations of random harvested factors.
func boundHypotheses(rng *rand.Rand, sr boundSeries, opts *Options) []hypothesis {
	var hyps []hypothesis
	if len(sr.params) == 1 {
		cands := singleTermCandidates(sr.params[0], opts)
		for _, c := range cands {
			hyps = append(hyps, hypothesis{factors: [][]pmnf.Factor{c}})
		}
		for b := 0; b < 4; b++ {
			first := cands[rng.Intn(len(cands))]
			for _, c := range cands {
				if !sameTerm(c, first) {
					hyps = append(hyps, hypothesis{factors: [][]pmnf.Factor{first, c}})
				}
			}
		}
		for p := 0; p < 2; p++ {
			t1, t2 := cands[rng.Intn(len(cands))], cands[rng.Intn(len(cands))]
			for i := 0; i < 30; i++ {
				hyps = append(hyps, hypothesis{factors: [][]pmnf.Factor{t1, t2, cands[rng.Intn(len(cands))]}})
			}
		}
		return hyps
	}
	perParam := make([][]pmnf.Factor, len(sr.params))
	for l, param := range sr.params {
		fs := pmnf.SingleFactors(opts.PolyExponents, opts.LogExponents, opts.Collectives[param])
		for k := 1 + rng.Intn(3); k > 0; k-- {
			if f := fs[rng.Intn(len(fs))]; !containsFactor(perParam[l], f) {
				perParam[l] = append(perParam[l], f)
			}
		}
	}
	for _, h := range combinationHypotheses(len(sr.params), perParam) {
		if len(h.factors) <= 3 {
			hyps = append(hyps, h)
		}
	}
	return hyps
}

// The closed-form leave-one-out bound (bound.go) must never exceed a
// hypothesis's exact cvScore by more than the margin pruning allows for,
// or pruning could skip a hypothesis selection needed. Where every exact
// fold fits and the closed form charged no fold 0 for its leverage, the
// closed form without its rounding allowances must agree with the exact
// score. The test covers every hypothesis shape the three
// scoring sites bound, over clean, noisy and sign-flipped series, with and
// without AllowNegative.
func TestLooBoundIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var total, declined, dropped, agreed int
	var worstOver, worstRaw float64
	for _, sr := range boundCorpus(rng) {
		for _, allowNeg := range []bool{false, true} {
			opts := DefaultOptions()
			opts.AllowNegative = allowNeg
			if rng.Intn(3) == 0 {
				opts.Collectives = map[string]bool{"p": true}
			}
			s := newSearcher(sr.params, sr.pts, opts)
			for _, h := range boundHypotheses(rng, sr, opts) {
				if len(sr.pts) <= len(h.factors)+1 {
					continue
				}
				total++
				s.lb.reset(s.pts)
				last := len(h.factors) - 1
				for _, term := range h.factors[:last] {
					s.lb.extend(s.termColumn(term, &s.colScratch))
				}
				bound, raw := s.lb.bound(s.termColumn(h.factors[last], &s.colScratch), allowNeg)
				if math.IsInf(bound, -1) {
					declined++
					continue
				}
				exact, failed, err := s.cvScore(h)
				if err != nil || math.IsNaN(exact) {
					dropped++ // selection never sees it; any bound is safe
					continue
				}
				if pruned(bound, exact) {
					t.Errorf("%s allowNeg=%v %v: bound %.17g exceeds exact score %.17g (%d failed folds)",
						sr.name, allowNeg, h.factors, bound, exact, failed)
				}
				if exact > 0 {
					worstOver = max(worstOver, (bound-exact)/exact)
				}
				if failed == 0 && !math.IsNaN(raw) {
					agreed++
					dev := math.Abs(raw - exact)
					if dev > 1e-9*exact+1e-9 {
						t.Errorf("%s allowNeg=%v %v: closed form %.17g, exact %.17g with every fold fitted",
							sr.name, allowNeg, h.factors, raw, exact)
					}
					if exact > 1e-6 {
						worstRaw = max(worstRaw, dev/exact)
					}
				}
			}
			s.release()
		}
	}
	if total == 0 || agreed == 0 {
		t.Fatal("the corpus produced no hypotheses to check")
	}
	t.Logf("%d hypotheses: %d declined (no bound, scored exactly), %d dropped by every fold failing; "+
		"max (bound-exact)/exact %.3g; %d with every fold fitted, max |raw-exact|/exact %.3g",
		total, declined, dropped, worstOver, agreed, worstRaw)
}

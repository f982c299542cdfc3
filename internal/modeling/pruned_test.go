package modeling

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceOf returns o on the reference path, which scores every
// hypothesis exactly.
func referenceOf(o *Options) *Options {
	r := *o
	r.reference = true
	return &r
}

// matchReference fits ms on the pruned and the reference path and
// requires the same model, scores and leave-one-out folds, bit for bit.
func matchReference(t *testing.T, name string, params []string, ms []Measurement, opts *Options) {
	t.Helper()
	fast, errF := FitMulti(params, ms, opts)
	ref, errR := FitMulti(params, ms, referenceOf(opts))
	if (errF == nil) != (errR == nil) {
		t.Fatalf("%s: err %v vs reference %v", name, errF, errR)
	}
	if errF != nil {
		return
	}
	if diff, ok := sameModelInfo(fast, ref); !ok {
		t.Errorf("%s: %s", name, diff)
	}
	if !sameFolds(fast, ref) {
		t.Errorf("%s: CVFolds differ from the reference", name)
	}
}

// The pruned searches (bound.go) must select what exhaustive exact scoring
// selects, bit for bit, where pruning is most fragile: exact PMNF data,
// whose scores sit near 0 and tie inside Occam's 0.25 slack; a round whose
// winner fails its full fit after pruning, so selection widens; and series
// that reach the pair search. TestPrunedSearchMatchesReferenceOnProxies
// covers real traffic.
func TestPrunedSearchMatchesReference(t *testing.T) {
	t.Run("exact-pmnf", func(t *testing.T) {
		truths := []struct {
			name string
			f    func(x float64) float64
		}{
			{"3+2x", func(x float64) float64 { return 3 + 2*x }},
			{"x^2", func(x float64) float64 { return x * x }},
			{"5+x·log x", func(x float64) float64 { return 5 + x*math.Log2(x) }},
			{"x^1.5+10·log x", func(x float64) float64 { return math.Pow(x, 1.5) + 10*math.Log2(x) }},
			{"7+x^0.25·log²x", func(x float64) float64 { return 7 + math.Pow(x, 0.25)*math.Pow(math.Log2(x), 2) }},
			{"x+x^2", func(x float64) float64 { return x + x*x }},
			{"x^3", func(x float64) float64 { return x * x * x }},
		}
		for _, tr := range truths {
			for _, xs := range [][]float64{{2, 4, 8, 16, 32}, {4, 8, 16, 32, 64, 128}} {
				var ms []Measurement
				for _, x := range xs {
					ms = append(ms, Measurement{Coords: []float64{x}, Values: []float64{tr.f(x)}})
				}
				for _, allowNeg := range []bool{false, true} {
					opts := DefaultOptions()
					opts.AllowNegative = allowNeg
					matchReference(t, fmt.Sprintf("%s/%d points/allowNeg=%v", tr.name, len(xs), allowNeg), []string{"p"}, ms, opts)
				}
			}
			grid := meas2([]float64{2, 4, 8, 16, 32}, []float64{128, 256, 512, 1024, 2048},
				func(p, n float64) float64 { return tr.f(p) * n })
			matchReference(t, tr.name+"·n/grid", []string{"p", "n"}, grid, DefaultOptions())
			grid = meas2([]float64{2, 4, 8, 16, 32}, []float64{128, 256, 512, 1024, 2048},
				func(p, n float64) float64 { return tr.f(p) + n })
			matchReference(t, tr.name+"+n/grid", []string{"p", "n"}, grid, DefaultOptions())
		}
	})

	// Round one of these series selects a winner whose full-data fit fails
	// while candidates are still unscored, so selection widens: for seed
	// 2492 to one more candidate, for seed 278 through every candidate
	// (three winners fail, the rest fail every fold, and the round selects
	// nothing). Either way it must end where exhaustive scoring ends.
	t.Run("winner-fails-full-fit", func(t *testing.T) {
		for _, tc := range []struct {
			seed     int64
			selected bool
		}{{2492, true}, {278, false}} {
			seed := tc.seed
			ms := randomSeries1(rand.New(rand.NewSource(seed)), false)
			opts := DefaultOptions()
			pts := aggregate(ms, AggMean.fn())
			sortPoints(pts)
			s := newSearcher([]string{"p"}, pts, opts)
			cands := singleTermCandidates("p", opts)
			cols := make([][]float64, len(cands))
			for c, cand := range cands {
				var own []float64
				cols[c] = s.termColumn(cand, &own)
			}
			r := s.lineRound([]scoredHypothesis{{}}, cands, cols)
			_, ok := s.selectAndFit(r, opts.Improvement)
			var nRemoved, nUnscored int
			for _, st := range r.state {
				switch st {
				case removed:
					nRemoved++
				case unscored:
					nUnscored++
				}
			}
			s.release()
			if ok != tc.selected || nRemoved == 0 || (nUnscored > 0) != tc.selected {
				t.Fatalf("seed %d: round one selected=%v after removing %d winners, %d candidates unscored; want selected=%v after a removal",
					seed, ok, nRemoved, nUnscored, tc.selected)
			}
			matchReference(t, fmt.Sprintf("seed %d", seed), []string{"p"}, ms, opts)
		}
	})

	// These series end their line rounds above pairSearchThreshold, so the
	// pair search bounds and re-scores its prescreened pairs.
	t.Run("pair-search", func(t *testing.T) {
		for _, seed := range []int64{0, 1, 7} {
			ms := randomSeries1(rand.New(rand.NewSource(seed)), false)
			opts := DefaultOptions()
			pts := aggregate(ms, AggMean.fn())
			sortPoints(pts)
			cands := singleTermCandidates("p", opts)
			var counts searchCounts
			if _, _, err := fitIterativeHarvest([]string{"p"}, pts, cands, opts, &counts); err != nil {
				t.Fatal(err)
			}
			// Two line rounds bound every candidate, then every extension
			// of a full beam; anything beyond that is the pair search.
			if lines := int64(len(cands) + beamWidth*(len(cands)-1)); counts.bounded <= lines {
				t.Fatalf("seed %d: %d hypotheses bounded, want the pair search beyond the line rounds' %d",
					seed, counts.bounded, lines)
			}
			matchReference(t, fmt.Sprintf("seed %d", seed), []string{"p"}, ms, opts)
		}
	})
}

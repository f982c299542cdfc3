package modeling

// Bound and verify. Scoring a hypothesis exactly costs n leave-one-out
// refits (searcher.loo); most hypotheses of a search cannot change its
// result. So every hypothesis first gets a lower bound on its cvScore from
// one factorization of its full design matrix, and only hypotheses whose
// bound can still reach what selection looks at run the exact fold loop.
//
// The bound rests on Allen's PRESS identity (D. M. Allen, Technometrics
// 16(1), 1974): with full-data residuals eᵢ and leverages hᵢᵢ, the
// prediction of point i from a least-squares fit on the other points is
// yᵢ − eᵢ/(1 − hᵢᵢ), and the fold's coefficients are β − R⁻¹qᵢ·eᵢ/(1 − hᵢᵢ)
// (qᵢ the i-th row of the thin Q). Each fold is charged
//
//   - 200 where a term coefficient of that fold is negative by more than
//     its rounding allowance (and AllowNegative is off): the exact fold
//     then fails checkCoef, and cvScore charges it 200;
//   - 0 where the leverage is within boundLevTol of 1 or the observation
//     is 0, where the closed form says nothing reliable;
//   - otherwise the fold's closed-form SMAPE, less its rounding allowance.
//
// Where the exact fold fits, its SMAPE equals the closed form's up to
// rounding; where it fails it is charged 200, which no fold's SMAPE
// exceeds. The mean charge is therefore at most cvScore. The rounding
// allowance of a fold is boundErr·κ²/(1 − hᵢᵢ) relative to the scale of
// its fitted terms, where κ estimates the condition number of the
// column-normalized design from its Gram–Schmidt residual ratios and
// 1/(1 − hᵢᵢ) is how much holding point i out can worsen it.
//
// The factorization is a thin QR by re-orthogonalized Gram–Schmidt, built
// one column at a time, so a line round factors each beam hypothesis once
// and bounds every candidate term as one more column of it.

import (
	"cmp"
	"math"
	"slices"

	"extrareq/internal/pmnf"
)

const (
	// boundColTol: a column whose residual after projection onto the
	// columns before it is at most this fraction of its own norm is nearly
	// collinear with them, and the hypothesis gets no bound (it is scored
	// exactly).
	boundColTol = 1e-8
	// boundLevTol: a fold whose point has 1 − hᵢᵢ at most this is charged
	// 0; holding the point out leaves the fold (nearly) rank deficient.
	boundLevTol = 1e-8
	// boundErr scales each fold's rounding allowance. Householder QR's
	// backward error is about m·k·2⁻⁵³ (2e-14 for a 25×4 design); the
	// factor of 500 above it also covers κ being an estimate.
	boundErr = 1e-11
)

// pruned reports whether a candidate whose bound is b can be left unscored
// against threshold t: its exact score exceeds t even if the bound were
// off by rounding. The rounding allowances already keep the bound at or
// below the exact score on every hypothesis TestLooBoundIsLowerBound
// checks; this margin is a second guard.
func pruned(b, t float64) bool {
	return b > t+1e-6*math.Abs(t)+1e-9
}

// looBasis is an extendable thin QR factorization of a design matrix over
// one point series, with what the closed-form leave-one-out bound needs:
// the full-data coefficients, residuals and leverages, and the rows R⁻¹qᵢ
// that turn a residual into a fold's coefficient shift. All storage is
// grow-only and reused across factorizations.
type looBasis struct {
	n     int
	y     []float64
	yNorm float64
	ones  []float64
	q     []float64 // orthonormal columns: column j is q[j*n:(j+1)*n]
	m     []float64 // column j holds component j of R⁻¹qᵢ for every row i
	r     []float64 // upper-triangular R packed by column: column j is r[j*(j+1)/2:][:j+1]
	beta  []float64 // full-data coefficients, constant first
	norm  []float64 // column 2-norms
	resid []float64 // full-data residuals
	lev   []float64 // leverages hᵢᵢ
	// rhoMin is the smallest residual ratio of a column after projection
	// onto the columns before it; 1/rhoMin estimates the condition number
	// of the column-normalized design.
	rhoMin float64
	ok     bool // false once a column failed boundColTol

	// One candidate column: its normalized orthogonal direction z, its
	// projections u onto the basis, v = R⁻¹u, and the extended
	// coefficients b.
	z, u, v, b []float64
}

// reset starts the factorization of pts's design with the constant column.
func (lb *looBasis) reset(pts []point) {
	n := len(pts)
	lb.n = n
	lb.y = growFloats(lb.y, n)
	lb.ones = growFloats(lb.ones, n)
	for i, pt := range pts {
		lb.y[i], lb.ones[i] = pt.y, 1
	}
	lb.yNorm = math.Sqrt(dot(lb.y, lb.y))
	lb.q, lb.m, lb.r, lb.beta, lb.norm = lb.q[:0], lb.m[:0], lb.r[:0], lb.beta[:0], lb.norm[:0]
	lb.resid = append(lb.resid[:0], lb.y...)
	lb.lev = growFloats(lb.lev, n)
	clear(lb.lev)
	lb.rhoMin, lb.ok = 1, true
	lb.extend(lb.ones)
}

// orth sets z to a's normalized component orthogonal to the basis and u to
// its projections: modified Gram–Schmidt, run twice so z is orthogonal to
// working precision. It returns ‖a‖ and the residual norm, and ok=false
// when the column fails boundColTol or is not finite.
func (lb *looBasis) orth(a []float64) (na, nz float64, ok bool) {
	n, k := lb.n, len(lb.beta)
	lb.z = append(lb.z[:0], a...)
	lb.u = growFloats(lb.u, k)
	clear(lb.u)
	z := lb.z
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < k; j++ {
			qj := lb.q[j*n : (j+1)*n]
			d := dot(qj, z)
			lb.u[j] += d
			for i, qi := range qj {
				z[i] -= d * qi
			}
		}
	}
	na, nz = math.Sqrt(dot(a, a)), math.Sqrt(dot(z, z))
	if !(nz > boundColTol*na) || math.IsInf(na, 0) {
		return na, nz, false
	}
	for i := range z {
		z[i] /= nz
	}
	return na, nz, true
}

// coefs computes, for the column orth just processed, v = R⁻¹u and the
// extended full-data coefficients b, and returns the new residual
// direction's weight qy = zᵀe.
func (lb *looBasis) coefs(nz float64) (qy float64) {
	k := len(lb.beta)
	qy = dot(lb.z, lb.resid)
	bNew := qy / nz
	lb.v = growFloats(lb.v, k)
	for j := k - 1; j >= 0; j-- {
		s := lb.u[j]
		for c := j + 1; c < k; c++ {
			s -= lb.r[c*(c+1)/2+j] * lb.v[c]
		}
		lb.v[j] = s / lb.r[j*(j+1)/2+j]
	}
	lb.b = growFloats(lb.b, k+1)
	for j := 0; j < k; j++ {
		lb.b[j] = lb.beta[j] - lb.v[j]*bNew
	}
	lb.b[k] = bNew
	return qy
}

// extend appends column a to the factorization. A column that fails
// boundColTol leaves the basis unable to bound anything.
func (lb *looBasis) extend(a []float64) {
	if !lb.ok {
		return
	}
	na, nz, ok := lb.orth(a)
	if !ok {
		lb.ok = false
		return
	}
	qy := lb.coefs(nz)
	n, k := lb.n, len(lb.beta)
	for j := 0; j < k; j++ {
		mj := lb.m[j*n : (j+1)*n]
		for i, zi := range lb.z {
			mj[i] -= lb.v[j] * zi / nz
		}
	}
	for _, zi := range lb.z {
		lb.m = append(lb.m, zi/nz)
	}
	lb.q = append(lb.q, lb.z...)
	lb.r = append(append(lb.r, lb.u[:k]...), nz)
	lb.beta = append(lb.beta[:0], lb.b[:k+1]...)
	lb.norm = append(lb.norm, na)
	for i, zi := range lb.z {
		lb.resid[i] -= zi * qy
		lb.lev[i] += zi * zi
	}
	lb.rhoMin = min(lb.rhoMin, nz/na)
}

// bound returns the closed-form lower bound on the cvScore of the basis's
// hypothesis extended by column a, without extending the basis, or −Inf
// where the basis or the column is too close to rank deficient to bound.
// raw is the same mean without the rounding allowances, or NaN where a
// fold was charged 0 for its leverage or a zero observation: where every
// exact fold fits, it is the exact score up to rounding.
func (lb *looBasis) bound(a []float64, allowNegative bool) (bound, raw float64) {
	if !lb.ok {
		return math.Inf(-1), math.Inf(-1)
	}
	na, nz, ok := lb.orth(a)
	if !ok {
		return math.Inf(-1), math.Inf(-1)
	}
	qy := lb.coefs(nz)
	n, k := lb.n, len(lb.beta)
	z, v, b := lb.z, lb.v, lb.b
	rho := min(lb.rhoMin, nz/na)
	kappa2 := 1 / (rho * rho)
	// The scale of the fitted terms, over the full data; each fold adds
	// its own coefficient shift below.
	s0 := lb.yNorm + math.Abs(b[k])*na
	for j := 0; j < k; j++ {
		s0 += math.Abs(b[j]) * lb.norm[j]
	}
	sum, rawSum := 0.0, 0.0
	for i := 0; i < n; i++ {
		zi := z[i]
		d := 1 - (lb.lev[i] + zi*zi)
		if !(d > boundLevTol) {
			rawSum = math.NaN()
			continue
		}
		ri := (lb.resid[i] - zi*qy) / d // the PRESS residual
		mk := zi / nz                   // component k of R⁻¹qᵢ for the extended R
		shift := math.Abs(mk) * na
		for j := 0; j < k; j++ {
			shift += math.Abs(lb.m[j*n+i]-v[j]*mk) * lb.norm[j]
		}
		tol := boundErr * kappa2 / d * (s0 + math.Abs(ri)*shift)
		if !allowNegative {
			// Fold i's coefficients are b − R⁻¹qᵢ·rᵢ; the constant may be
			// negative.
			neg := (b[k]-mk*ri)*na < -tol
			for j := 1; j < k && !neg; j++ {
				neg = (b[j]-(lb.m[j*n+i]-v[j]*mk)*ri)*lb.norm[j] < -tol
			}
			if neg {
				sum += 200
				rawSum += 200
				continue
			}
		}
		yi := lb.y[i]
		if yi == 0 {
			rawSum = math.NaN()
			continue
		}
		// The prediction is off by at most (k+1)·tol, and a point's SMAPE
		// moves by at most 400/|yᵢ| per unit of prediction.
		sm := pointSMAPE(yi-ri, yi)
		rawSum += sm
		if sm -= 400 * float64(k+1) * tol / math.Abs(yi); sm > 0 {
			sum += sm
		}
	}
	bound, raw = sum/float64(n), rawSum/float64(n)
	if math.IsNaN(bound) {
		return math.Inf(-1), raw
	}
	return bound, raw
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// The states of a round's candidates.
const (
	unscored uint8 = iota
	scored         // exactly scored; in round.scored
	dropped        // every fold failed, or the score was NaN
	removed        // selected, but its full-data fit failed
)

// A round is one selection among candidate hypotheses held in a fixed
// original order: the candidates of one line round, the combinations of
// FitMulti's step 3, or the pair search's re-scores. Candidates stay an
// index until they are exactly scored, and are scored in ascending bound
// order, only as far as selection needs. The exactly scored candidates
// are kept in original order, so occamSelect's and the beam sort's ties
// resolve as they would over every candidate.
type round struct {
	s *searcher
	// shape writes candidate i's terms into h, reusing h's storage.
	shape func(i int, h *hypothesis)
	// The candidates in ascending (bound, index) order, produced lazily:
	// sorted holds the order's prefix popped so far from the min-heap
	// heap. A round rarely looks past its first few dozen candidates.
	heap, sorted []boundKey
	state        []uint8
	next         int // the order's first next candidates hold none unscored
	scored       []scoredHypothesis
	// low holds the nLow lowest scores in scored, ascending.
	low  [beamWidth]float64
	nLow int
	band []bandCand
}

// boundKey is a candidate's bound and index.
type boundKey struct {
	b float64
	i int32
}

func (a boundKey) less(b boundKey) bool { return a.b < b.b || (a.b == b.b && a.i < b.i) }

// bandCand is a candidate of the Occam class scan.
type bandCand struct {
	cx float64
	i  int32
}

// newRound starts a selection among at most n candidates; the caller adds
// every candidate's bound in original order, then calls ready.
func (s *searcher) newRound(n int, shape func(i int, h *hypothesis)) *round {
	r := &s.rnd
	r.s, r.shape = s, shape
	r.heap, r.sorted, r.scored, r.next, r.nLow = slices.Grow(r.heap[:0], n), r.sorted[:0], nil, 0, 0
	return r
}

// add appends a candidate whose cvScore is at least bound.
func (r *round) add(bound float64) {
	r.heap = append(r.heap, boundKey{bound, int32(len(r.heap))})
}

// ready heapifies the candidates by bound.
func (r *round) ready() {
	n := len(r.heap)
	r.state = append(r.state[:0], make([]uint8, n)...)
	for i := n/2 - 1; i >= 0; i-- {
		r.siftDown(i)
	}
}

func (r *round) siftDown(i int) {
	h := r.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// at returns the p-th candidate in ascending bound order; ok is false past
// the last.
func (r *round) at(p int) (k boundKey, ok bool) {
	for len(r.sorted) <= p {
		n := len(r.heap) - 1
		if n < 0 {
			return boundKey{}, false
		}
		r.sorted = append(r.sorted, r.heap[0])
		r.heap[0] = r.heap[n]
		r.heap = r.heap[:n]
		r.siftDown(0)
	}
	return r.sorted[p], true
}

// score runs candidate i's exact fold loop and files the result.
func (r *round) score(i int32) (float64, bool) {
	s := r.s
	r.shape(int(i), &s.hyp)
	s.nScored++
	score, _, err := s.cvScore(s.hyp)
	if err != nil || math.IsNaN(score) {
		r.state[i] = dropped
		return 0, false
	}
	r.state[i] = scored
	c := scoredHypothesis{h: hypothesis{factors: slices.Clone(s.hyp.factors)}, score: score, idx: int(i)}
	at, _ := slices.BinarySearchFunc(r.scored, c.idx, func(e scoredHypothesis, t int) int { return cmp.Compare(e.idx, t) })
	r.scored = slices.Insert(r.scored, at, c)
	r.noteLow(score)
	return score, true
}

// noteLow files a score among the lowest beamWidth.
func (r *round) noteLow(score float64) {
	j := r.nLow
	if j == beamWidth {
		if score >= r.low[j-1] {
			return
		}
		j--
	} else {
		r.nLow++
	}
	for ; j > 0 && r.low[j-1] > score; j-- {
		r.low[j] = r.low[j-1]
	}
	r.low[j] = score
}

// kth returns the k-th lowest exact score, +Inf while fewer are known.
func (r *round) kth(k int) float64 {
	if r.nLow < k {
		return math.Inf(1)
	}
	return r.low[k-1]
}

// remove drops scored[at], whose full-data fit failed.
func (r *round) remove(at int) {
	r.state[r.scored[at].idx] = removed
	r.scored = slices.Delete(r.scored, at, at+1)
	r.nLow = 0
	for _, c := range r.scored {
		r.noteLow(c.score)
	}
}

// scan exact-scores candidates in bound order until the next one's bound
// clears the k-th lowest exact score. Afterwards no unscored candidate can
// score at or below the k lowest scores.
func (r *round) scan(k int) {
	for ; ; r.next++ {
		c, ok := r.at(r.next)
		if !ok {
			return
		}
		if r.state[c.i] != unscored {
			continue
		}
		if pruned(c.b, r.kth(k)) {
			return
		}
		r.score(c.i)
	}
}

// coverOccam exact-scores what occamSelect needs: the minimum score, then
// the candidates whose bound admits the band, by ascending complexity,
// through the first complexity class with a member inside the band.
// occamSelect over the scored candidates then picks the candidate it
// would pick over all of them.
func (r *round) coverOccam(band float64) {
	r.scan(1)
	if len(r.scored) == 0 {
		return // the scan scored every candidate
	}
	limit := occamLimit(r.kth(1), band)
	r.band = r.band[:0]
	for p := r.next; ; p++ {
		c, ok := r.at(p)
		if !ok || pruned(c.b, limit) {
			break
		}
		if r.state[c.i] == unscored {
			r.shape(int(c.i), &r.s.hyp)
			r.band = append(r.band, bandCand{cx: hypothesisComplexity(r.s.hyp), i: c.i})
		}
	}
	if len(r.band) == 0 {
		return
	}
	best := math.Inf(1) // the simplest complexity with a member in the band
	for _, c := range r.scored {
		if !(c.score > limit) {
			best = min(best, hypothesisComplexity(c.h))
		}
	}
	slices.SortFunc(r.band, func(a, b bandCand) int { return cmp.Compare(a.cx, b.cx) })
	for _, c := range r.band {
		if c.cx > best {
			return
		}
		if score, ok := r.score(c.i); ok && !(score > limit) {
			best = c.cx
		}
	}
}

// selectAndFit Occam-selects among the round's candidates and fits the
// winner's coefficients on the full series. Models are fitted lazily: only
// winners ever need one. A winner whose full fit fails (a shape can pass
// every leave-one-out fold yet hit a sign constraint on the full series)
// is removed and selection repeats, scoring further candidates if the
// band widens. ok is false when no candidate can be selected and fitted.
func (s *searcher) selectAndFit(r *round, band float64) (scoredHypothesis, bool) {
	for {
		r.coverOccam(band)
		wi := occamSelect(r.scored, band)
		if wi < 0 {
			return scoredHypothesis{}, false
		}
		m, err := s.fit(r.scored[wi].h)
		if err == nil {
			w := r.scored[wi]
			w.model = m
			return w, true
		}
		r.remove(wi)
	}
}

// boundTerms returns the closed-form bound of the hypothesis with the
// given terms, factored column by column, or −Inf on the reference path,
// which scores every hypothesis exactly.
func (s *searcher) boundTerms(terms [][]pmnf.Factor) float64 {
	if s.opts.reference {
		return math.Inf(-1)
	}
	s.nBounded++
	s.lb.reset(s.pts)
	last := len(terms) - 1
	for _, term := range terms[:last] {
		s.lb.extend(s.termColumn(term, &s.colScratch))
	}
	bound, _ := s.lb.bound(s.termColumn(terms[last], &s.colScratch), s.opts.AllowNegative)
	return bound
}

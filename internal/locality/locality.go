// Package locality computes memory-access locality metrics: the reuse
// distance (number of accesses between two accesses to the same location)
// and the stack distance (number of accesses to *unique* locations between
// two accesses to the same location), as defined in §II-A and Figure 1 of
// the paper.
//
// The Analyzer is a streaming engine: each Record call returns, when the
// address has been seen before, the exact reuse and stack distance of the
// access. Stack distances are computed with the classic Olken algorithm: a
// Fenwick tree over logical access times marks the most recent access of
// each live address, so the number of distinct addresses touched since the
// previous access is a range sum.
//
// Per instruction group, the Analyzer accumulates distance samples; the
// methodology of §II-B (ignore groups with fewer than MinSamples samples,
// model the median) is implemented by GroupStats and FilterGroups.
package locality

import (
	"sort"

	"extrareq/internal/mathx"
)

// Distance is the result of one recorded access to a previously seen
// address.
type Distance struct {
	Group string
	Reuse int64 // accesses strictly between the two accesses
	Stack int64 // distinct other addresses among them
}

// Analyzer computes exact reuse and stack distances over a stream of
// accesses. It is process-local and not safe for concurrent use.
type Analyzer struct {
	clock int64
	last  map[uint64]int64 // address -> time of most recent access
	bit   *fenwick         // marks times that are the latest access of an address
	group map[string]*groupAccum
	// MaxSamplesPerGroup caps retained distance samples per group to bound
	// memory; 0 means unlimited.
	MaxSamplesPerGroup int
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		last:  map[uint64]int64{},
		bit:   newFenwick(1024),
		group: map[string]*groupAccum{},
	}
}

// Reset empties the analyzer for a new access stream while keeping what
// it allocated: the address map's buckets, the Fenwick tree and each
// group's sample slices. A reset analyzer returns the same distances and
// statistics as a fresh one; a campaign that probes several problem sizes
// reuses one analyzer instead of growing a new one per size.
func (a *Analyzer) Reset() {
	a.clock = 0
	clear(a.last)
	clear(a.bit.tree)
	for _, g := range a.group {
		*g = groupAccum{stack: g.stack[:0], reuse: g.reuse[:0]}
	}
}

// Record processes one access, discarding the per-access result. It
// satisfies trace.Recorder so an Analyzer can sit behind a BurstSampler.
func (a *Analyzer) Record(addr uint64, group string) { a.Observe(addr, group) }

// Observe processes one access. When the address was accessed before, it
// returns the distances and ok=true; the first access to an address has no
// distance (the paper's "neither stack nor reuse distance can be computed"
// case for streamed-through data such as matrix C).
func (a *Analyzer) Observe(addr uint64, group string) (Distance, bool) {
	t := a.clock
	a.clock++
	if t >= a.bit.size {
		a.bit = a.bit.grown(a.clock * 2)
	}

	g := a.group[group]
	if g == nil {
		g = &groupAccum{}
		a.group[group] = g
	}
	g.accesses++

	lastT, seen := a.last[addr]
	a.last[addr] = t
	if !seen {
		g.firstTouches++
		a.bit.set(t)
		return Distance{}, false
	}
	// Distinct other addresses since lastT: marked times in (lastT, t).
	stack := a.bit.rangeSum(lastT+1, t-1)
	reuse := t - lastT - 1
	a.bit.clear(lastT)
	a.bit.set(t)

	d := Distance{Group: group, Reuse: reuse, Stack: stack}
	if a.MaxSamplesPerGroup == 0 || len(g.stack) < a.MaxSamplesPerGroup {
		g.stack = append(g.stack, float64(stack))
		g.reuse = append(g.reuse, float64(reuse))
	}
	g.samples++
	return d, true
}

// Accesses returns the total number of recorded accesses.
func (a *Analyzer) Accesses() int64 { return a.clock }

// GroupStats summarizes the distance samples of one instruction group.
//
// Samples counts every access that produced a distance; Retained counts
// the subset whose distances were actually kept under MaxSamplesPerGroup.
// The distance summaries (medians, max, mean) are computed from the
// retained samples only, so when Truncated is set they describe the
// *earliest* Retained distances of the group — a prefix, not a uniform
// sample — while Samples remains the statistically correct weight for
// cross-group aggregation (MedianStackDistance, FilterGroups).
type GroupStats struct {
	Group        string
	Accesses     int64 // all accesses attributed to the group
	Samples      int64 // accesses that produced a distance
	Retained     int64 // distance samples retained under the cap
	Truncated    bool  // true when the cap dropped samples (Retained < Samples)
	FirstTouches int64 // accesses to never-before-seen addresses
	MedianStack  float64
	MedianReuse  float64
	MaxStack     float64
	MeanStack    float64
}

// Groups returns per-group statistics, sorted by group name.
func (a *Analyzer) Groups() []GroupStats {
	out := make([]GroupStats, 0, len(a.group))
	for name, g := range a.group {
		if g.accesses == 0 {
			continue // kept by Reset, not seen since
		}
		gs := GroupStats{
			Group:        name,
			Accesses:     g.accesses,
			Samples:      g.samples,
			Retained:     int64(len(g.stack)),
			Truncated:    int64(len(g.stack)) < g.samples,
			FirstTouches: g.firstTouches,
		}
		if len(g.stack) > 0 {
			gs.MedianStack = mathx.Median(g.stack)
			gs.MedianReuse = mathx.Median(g.reuse)
			_, gs.MaxStack = mathx.MinMax(g.stack)
			gs.MeanStack = mathx.Mean(g.stack)
		}
		out = append(out, gs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}

// StackPercentile returns the q-quantile (0..1) of the retained stack
// distance samples of the named group; ok is false when the group has no
// samples.
func (a *Analyzer) StackPercentile(group string, q float64) (float64, bool) {
	g := a.group[group]
	if g == nil || len(g.stack) == 0 {
		return 0, false
	}
	return mathx.Quantile(g.stack, q), true
}

// StackHistogram counts the named group's stack distance samples into the
// half-open buckets defined by the ascending edges (plus an implicit
// overflow bucket starting at the last edge). ok is false when the group
// has no samples.
func (a *Analyzer) StackHistogram(group string, edges []float64) (*mathx.Histogram, bool) {
	g := a.group[group]
	if g == nil || len(g.stack) == 0 {
		return nil, false
	}
	h := mathx.NewHistogram(edges)
	for _, d := range g.stack {
		h.Observe(d)
	}
	return h, true
}

// FilterGroups implements the paper's robustness rule: "any instruction
// group with less than 100 samples gathered for each measurement
// configuration is ignored". It returns only groups with at least
// minSamples distance samples.
func FilterGroups(groups []GroupStats, minSamples int64) []GroupStats {
	out := make([]GroupStats, 0, len(groups))
	for _, g := range groups {
		if g.Samples >= minSamples {
			out = append(out, g)
		}
	}
	return out
}

// DefaultMinSamples is the paper's per-configuration sample threshold.
const DefaultMinSamples = 100

// MedianStackDistance returns the median stack distance across all samples
// of the given (already filtered) groups, weighting each group by its
// sample count. It returns 0 when no group qualifies.
func MedianStackDistance(groups []GroupStats) float64 {
	// Weighted median over group medians: expand by sample count in a
	// rank-based way without materializing all samples.
	type gm struct {
		median float64
		weight int64
	}
	var items []gm
	var total int64
	for _, g := range groups {
		if g.Samples == 0 {
			continue
		}
		items = append(items, gm{g.MedianStack, g.Samples})
		total += g.Samples
	}
	if total == 0 {
		return 0
	}
	sort.Slice(items, func(i, j int) bool { return items[i].median < items[j].median })
	half := total / 2
	var cum int64
	for _, it := range items {
		cum += it.weight
		if cum > half {
			return it.median
		}
	}
	return items[len(items)-1].median
}

type groupAccum struct {
	accesses     int64
	samples      int64
	firstTouches int64
	stack        []float64
	reuse        []float64
}

// fenwick is a binary indexed tree over logical time with 0-based indices.
type fenwick struct {
	size int64
	tree []int64
}

func newFenwick(size int64) *fenwick {
	if size < 1 {
		size = 1
	}
	return &fenwick{size: size, tree: make([]int64, size+1)}
}

// add applies delta at index i (0-based).
func (f *fenwick) add(i int64, delta int64) {
	for i++; i <= f.size; i += i & (-i) {
		f.tree[i] += delta
	}
}

func (f *fenwick) set(i int64)   { f.add(i, 1) }
func (f *fenwick) clear(i int64) { f.add(i, -1) }

// prefixSum returns the sum over [0, i] (0-based, inclusive).
func (f *fenwick) prefixSum(i int64) int64 {
	var s int64
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// rangeSum returns the sum over [lo, hi]; empty ranges yield 0.
func (f *fenwick) rangeSum(lo, hi int64) int64 {
	if hi < lo {
		return 0
	}
	if lo == 0 {
		return f.prefixSum(hi)
	}
	return f.prefixSum(hi) - f.prefixSum(lo-1)
}

// grown returns a copy with at least the given capacity, preserving marks.
func (f *fenwick) grown(size int64) *fenwick {
	if size <= f.size {
		return f
	}
	nf := newFenwick(size)
	// Recover point values via prefix sums delta; O(n log n) but growth is
	// amortized by doubling.
	prev := int64(0)
	for i := int64(0); i < f.size; i++ {
		cur := f.prefixSum(i)
		if v := cur - prev; v != 0 {
			nf.add(i, v)
		}
		prev = cur
	}
	return nf
}

package modeling

// Parallel model fitting. The paper's workflow fits one model per
// region×metric series; the series are independent, so they fan out across
// a worker pool. Three guarantees make the pool a drop-in replacement for
// the serial loop:
//
//  1. Determinism: FitAllObserved returns outcomes in task order
//     regardless of the worker count, and every individual fit is
//     deterministic, so the pool produces byte-identical models to a
//     serial loop.
//  2. Content-keyed caching: a FitCache memoizes fits under a fingerprint
//     of the task *content* (parameters, measurements, aggregator, and
//     generator options — never the task's display key), so identical
//     measurement sets are fitted exactly once per cache lifetime.
//  3. Bounded concurrency: at most `workers` fits run at once (default
//     GOMAXPROCS), each writing only its own result slot.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"extrareq/internal/obs"
	"extrareq/internal/pmnf"
)

// Agg names a deterministic aggregator over repeated observations. Fit
// tasks carry the name instead of a func value so that task content is
// hashable for the cache.
type Agg int

// The aggregators of the paper's methodology: mean for counter metrics,
// median for the locality metric (§II-B).
const (
	AggMean Agg = iota
	AggMedian
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	switch a {
	case AggMedian:
		return "median"
	default:
		return "mean"
	}
}

// fn returns the aggregation function.
func (a Agg) fn() func(Measurement) float64 {
	if a == AggMedian {
		return Measurement.Median
	}
	return Measurement.Mean
}

// FitTask is one independent model-fitting job: a measurement series plus
// the generator configuration. Key is a caller-chosen label (for example
// "region/metric") carried through to the outcome; it does not participate
// in cache fingerprints.
type FitTask struct {
	Key    string
	Params []string
	Ms     []Measurement
	Agg    Agg
	Opts   *Options
}

// FitOutcome is the result of one FitTask.
type FitOutcome struct {
	Key  string
	Info *ModelInfo
	Err  error
}

// The fit_* metric names FitAllObserved reports under (documented in
// DESIGN.md §6c).
const (
	// MetricFitTasks counts fit tasks processed (cache hits included).
	MetricFitTasks = "fit_tasks_total"
	// MetricFitCacheHits counts tasks served from the content cache.
	MetricFitCacheHits = "fit_cache_hits_total"
	// MetricFitErrors counts tasks whose fit returned an error.
	MetricFitErrors = "fit_errors_total"
	// MetricFitSeconds is the per-task latency histogram.
	MetricFitSeconds = "fit_seconds"
	// MetricFitHypothesesBounded counts hypotheses the searches passed
	// through the closed-form leave-one-out bound (bound.go), including
	// the few too close to rank deficient to bound.
	MetricFitHypothesesBounded = "fit_hypotheses_bounded_total"
	// MetricFitHypothesesScored counts hypotheses that ran the exact
	// leave-one-out fold loop.
	MetricFitHypothesesScored = "fit_hypotheses_scored_total"
)

// FitSecondsEdges is the bucket layout of MetricFitSeconds: exponential
// from 10µs (a cache hit) to ~2.6s (a large multi-parameter search).
func FitSecondsEdges() []float64 { return obs.ExpEdges(1e-5, 4, 10) }

// fitMetrics caches the resolved instruments so workers touch only
// atomics on the per-task path. Without a registry every instrument is
// nil and its updates do nothing.
type fitMetrics struct {
	tasks, hits, errors *obs.Counter
	bounded, scored     *obs.Counter
	seconds             *obs.Histogram
}

func newFitMetrics(r *obs.Registry) *fitMetrics {
	return &fitMetrics{
		tasks:   r.Counter(MetricFitTasks),
		hits:    r.Counter(MetricFitCacheHits),
		errors:  r.Counter(MetricFitErrors),
		bounded: r.Counter(MetricFitHypothesesBounded),
		scored:  r.Counter(MetricFitHypothesesScored),
		seconds: r.Histogram(MetricFitSeconds, FitSecondsEdges()),
	}
}

// FitAllObserved fits every task across a pool of workers and returns the
// outcomes in task order. workers <= 0 selects GOMAXPROCS. A non-nil cache
// memoizes fits by content: tasks with identical parameters,
// measurements, aggregator, and options share one fitted model (the
// returned *ModelInfo is shared and must be treated as read-only). A
// non-nil registry receives task counts, cache hits, fit errors, and a
// per-task latency histogram; the worker pool carries pprof goroutine
// labels so fitting shows up attributably in CPU and goroutine profiles.
func FitAllObserved(tasks []FitTask, workers int, cache *FitCache, reg *obs.Registry) []FitOutcome {
	out := make([]FitOutcome, len(tasks))
	if len(tasks) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	fm := newFitMetrics(reg)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := pprof.Labels("pool", "modeling.FitAll", "worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) {
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					out[i] = fitOne(tasks[i], cache, fm)
				}
			})
		}(w)
	}
	wg.Wait()
	return out
}

// fitOne runs one task, consulting the cache when provided.
func fitOne(t FitTask, cache *FitCache, fm *fitMetrics) FitOutcome {
	fm.tasks.Inc()
	start := time.Now()
	defer func() { fm.seconds.Observe(time.Since(start).Seconds()) }()
	observe := func(o FitOutcome) FitOutcome {
		if o.Err != nil {
			fm.errors.Inc()
		}
		return o
	}
	fit := func() (*ModelInfo, error) {
		// The searches count into counts; the task adds them to the
		// registry once.
		var counts searchCounts
		info, err := fitMulti(t.Params, t.Ms, t.Agg, t.Opts, cache, &counts)
		fm.bounded.Add(counts.bounded)
		fm.scored.Add(counts.scored)
		return info, err
	}
	if cache == nil {
		info, err := fit()
		return observe(FitOutcome{Key: t.Key, Info: info, Err: err})
	}
	info, err, hit := cache.do(fingerprint(t), fit)
	if hit {
		fm.hits.Inc()
	}
	return observe(FitOutcome{Key: t.Key, Info: info, Err: err})
}

// FitCache memoizes fitted models under content fingerprints. Safe for
// concurrent use; the zero value is not usable, call NewFitCache. It is
// single-flight: the first claimant of a fingerprint fits it, and every
// later claimant, concurrent or not, waits for and shares that result, so
// each content key is fitted exactly once.
//
// Below the whole fits it also memoizes, under the same rules, the factors
// a multi-parameter fit harvests from each parameter's baseline line
// (FitMulti's step 1), so fits whose series share a baseline line search
// it once. Len, Hits and fit_cache_hits_total count whole fits only.
type FitCache struct {
	mu       sync.Mutex
	entries  map[[sha256.Size]byte]*flight[*ModelInfo]
	lines    map[[sha256.Size]byte]*flight[[]pmnf.Factor]
	hits     atomic.Int64
	lineHits atomic.Int64
}

// flight is one fingerprint's computation; done is closed once val and err
// are final.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// errFitPanicked is what waiters on a fit receive when the fitting
// claimant panicked.
var errFitPanicked = errors.New("modeling: fit panicked")

// NewFitCache returns an empty cache.
func NewFitCache() *FitCache {
	return &FitCache{
		entries: map[[sha256.Size]byte]*flight[*ModelInfo]{},
		lines:   map[[sha256.Size]byte]*flight[[]pmnf.Factor]{},
	}
}

// Len reports the number of cached fits (including any in progress).
func (c *FitCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits reports how many lookups were served from the cache.
func (c *FitCache) Hits() int64 { return c.hits.Load() }

// do returns the fit for fp, running fit if fp has no entry yet and
// otherwise waiting for the entry's claimant; hit reports the latter.
func (c *FitCache) do(fp [sha256.Size]byte, fit func() (*ModelInfo, error)) (info *ModelInfo, err error, hit bool) {
	info, hit, err = singleFlight(&c.mu, c.entries, fp, fit)
	if hit {
		c.hits.Add(1)
	}
	return info, err, hit
}

// lineFactors returns the factors harvested from one parameter's baseline
// line (see harvestLine), searching the line only if no fit sharing this
// cache has searched it yet. A nil cache always searches. The returned
// slice may be shared and must be treated as read-only. A search counts
// its hypotheses into counts (if not nil); a memoized line counts none.
func (c *FitCache) lineFactors(param string, line []point, opts *Options, counts *searchCounts) ([]pmnf.Factor, error) {
	search := func() ([]pmnf.Factor, error) { return harvestLine(param, line, opts, counts) }
	if c == nil {
		return search()
	}
	fs, hit, err := singleFlight(&c.mu, c.lines, lineFingerprint(param, line, opts), search)
	if hit {
		c.lineHits.Add(1)
	}
	return fs, err
}

// singleFlight returns m[fp]'s value, running fn if fp has no entry yet
// and otherwise waiting for the entry's claimant; hit reports the latter.
// If fn panics, its waiters get errFitPanicked, the entry is dropped so a
// later claimant runs fn afresh, and the panic propagates. mu guards m.
func singleFlight[T any](mu *sync.Mutex, m map[[sha256.Size]byte]*flight[T], fp [sha256.Size]byte, fn func() (T, error)) (val T, hit bool, err error) {
	mu.Lock()
	if e, ok := m[fp]; ok {
		mu.Unlock()
		<-e.done
		return e.val, true, e.err
	}
	e := &flight[T]{done: make(chan struct{}), err: errFitPanicked}
	m[fp] = e
	mu.Unlock()
	finished := false
	defer func() {
		if !finished {
			mu.Lock()
			delete(m, fp)
			mu.Unlock()
		}
		close(e.done)
	}()
	e.val, e.err = fn()
	finished = true
	return e.val, false, e.err
}

// fingerprint hashes the content of a fit task: parameters, measurements,
// aggregator, and every generator option that influences the result. The
// task Key is deliberately excluded — identical series fitted under
// different labels share one cache entry.
func fingerprint(t FitTask) [sha256.Size]byte {
	h := newHasher()
	h.str(t.Agg.String())
	h.u64(uint64(len(t.Params)))
	for _, p := range t.Params {
		h.str(p)
	}
	h.u64(uint64(len(t.Ms)))
	for _, m := range t.Ms {
		h.floats(m.Coords)
		h.floats(m.Values)
	}

	opts := t.Opts
	if opts == nil {
		opts = DefaultOptions()
	}
	colls := make([]string, 0, len(opts.Collectives))
	for k, v := range opts.Collectives {
		if v {
			colls = append(colls, k)
		}
	}
	sort.Strings(colls)
	h.options(opts, colls)
	return h.sum()
}

// lineFingerprint hashes one baseline-line search: the parameter, the
// line's aggregated points, and every option the search reads — opts is
// the line's own options, with MinPoints already lowered to the line, and
// of the collectives only the line parameter's own flag matters.
func lineFingerprint(param string, line []point, opts *Options) [sha256.Size]byte {
	h := newHasher()
	h.str(param)
	h.u64(uint64(len(line)))
	for _, pt := range line {
		h.floats(pt.x)
		h.f64(pt.y)
	}
	var colls []string
	if opts.Collectives[param] {
		colls = []string{param}
	}
	h.options(opts, colls)
	return h.sum()
}

// hasher writes length-prefixed, fixed-width fields into a SHA-256 state.
type hasher struct {
	h   hash.Hash
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: sha256.New()} }

func (h *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *hasher) flag(b bool) {
	if b {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	h.h.Write([]byte(s))
}

func (h *hasher) floats(xs []float64) {
	h.u64(uint64(len(xs)))
	for _, x := range xs {
		h.f64(x)
	}
}

// options writes every generator option a search reads, with colls (sorted)
// standing for the collectives in effect.
func (h *hasher) options(o *Options, colls []string) {
	h.floats(o.PolyExponents)
	h.floats(o.LogExponents)
	h.u64(uint64(len(colls)))
	for _, k := range colls {
		h.str(k)
	}
	h.u64(uint64(o.MaxTerms))
	h.f64(o.Improvement)
	h.flag(o.AllowNegative)
	h.f64(o.NoiseFloor)
	h.u64(uint64(o.MinPoints))
	// The reference-path flag is fingerprinted so equivalence tests that
	// fit the same series through both paths never share a cache entry.
	h.flag(o.reference)
}

func (h *hasher) sum() [sha256.Size]byte {
	var fp [sha256.Size]byte
	h.h.Sum(fp[:0])
	return fp
}

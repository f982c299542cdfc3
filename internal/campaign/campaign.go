// Package campaign schedules measurement campaigns through one shared
// worker pool and serves repeated campaigns from a content-addressed
// cache.
//
// The paper's workflow (§IV) reruns the same small campaigns constantly —
// while tuning fault plans, regenerating report tables, or comparing model
// variants — and every rerun used to pay the full simulation cost plus a
// private worker pool per call. The Scheduler fixes both: all campaigns
// submitted to it, from any goroutine, draw on a single pool of workers
// (so concurrent campaigns interleave instead of oversubscribing), and
// each finished campaign is stored under a deterministic content hash of
// everything its bytes depend on. Because ResilientRunner is deterministic
// (seeds derive from the plan and configuration, never from scheduling), a
// key hit can be served from cache byte-identically to a fresh run.
//
// Caching is two-level: an in-memory LRU of marshaled entries (a campaign
// entry also keeps its decoded form once a hit has decoded it), optionally
// backed by a directory of JSON files (one per key, written atomically via
// temp file + rename, loaded tolerantly — a corrupt or truncated file is a
// miss, not an error). Cache traffic is observable through the cache_hit,
// cache_miss, and cache_bytes counters of the request's obs.Registry.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"extrareq/internal/apps"
	"extrareq/internal/obs"
	"extrareq/internal/simmpi"
	"extrareq/internal/workload"
)

// ErrClosed is returned by Run on a Scheduler whose Close has been
// called. Long-running servers hit this during shutdown races; it is
// a typed sentinel (errors.Is) so they can map it to a clean "draining"
// response instead of crashing on a closed pool.
var ErrClosed = errors.New("campaign: scheduler is closed")

// Metric names under which cache traffic is counted in a request's
// obs.Registry. cache_bytes counts the marshaled entry sizes moved to or
// from the disk store (written on miss, read on cold hit).
const (
	MetricCacheHit   = "cache_hit"
	MetricCacheMiss  = "cache_miss"
	MetricCacheBytes = "cache_bytes"
	// MetricCachePointHit / MetricCachePointMiss count per-point cache
	// traffic on the assembly path: a campaign whose own key misses still
	// reuses every (p, n) point entry a previous campaign stored.
	MetricCachePointHit  = "cache_point_hit"
	MetricCachePointMiss = "cache_point_miss"
	// MetricCacheDiskError counts store write failures (ENOSPC, a
	// vanished directory, ...). After the first one the scheduler stops
	// writing to the store instead of failing requests; reads stay live.
	MetricCacheDiskError = "cache_disk_error"
)

// DefaultMemEntries is the in-memory LRU capacity for campaign-level
// entries when Options leaves it zero. Entries are a few KB of JSON each,
// so the default costs little.
const DefaultMemEntries = 64

// DefaultMemPoints is the in-memory LRU capacity for point-level entries
// when Options leaves it zero. Point entries are a few hundred bytes each
// and a single campaign produces |Procs|×|Ns| of them, so the default is
// sized to hold many campaigns' worth.
const DefaultMemPoints = 1024

// Request describes one campaign: which app, over which grid, under which
// fault plan and resilience budget. The observability handles ride along
// to the runner but do not participate in the cache key.
type Request struct {
	App       apps.App
	Grid      workload.Grid
	Faults    *simmpi.FaultPlan
	Retries   int
	MinPoints int
	Metrics   *obs.Registry
	Tracer    *obs.Tracer
	// Progress, when non-nil, receives per-configuration completion
	// callbacks from the runner (done so far, total), serialized so done
	// never goes backwards. Like the observability handles it does not
	// participate in the cache key; a cache hit reports the whole grid
	// done in one call.
	Progress func(done, total int)
	// PointProgress, when non-nil, receives the running assembly split —
	// how many (p, n) configurations have been reused from the point cache
	// versus measured by this request — each time either count changes.
	// Calls are serialized, so neither count ever goes backwards. Servers
	// mirror it into job snapshots. A campaign-entry hit reports the whole
	// grid reused in one call.
	PointProgress func(reused, measured int)
	// Points, when non-nil, restricts the request to these (p, n)
	// configurations of Grid, measured and returned in the order given;
	// Progress then counts toward len(Points). A point-set request is not
	// a campaign: Run neither looks up, counts nor stores a campaign entry
	// for it, its point entries are the record, and its Outcome.Key stays
	// zero. nil requests the whole grid.
	Points [][2]int
}

// Outcome is a finished campaign together with its provenance: the cache
// key it is stored under, whether it was served from cache, and how much
// of it was assembled from previously measured points.
type Outcome struct {
	Campaign *workload.Campaign
	Report   *workload.CampaignReport
	// Key is the campaign key the outcome is stored under; zero for a
	// point-set request, which has no campaign entry.
	Key Key
	// CacheHit reports that nothing was measured: the campaign was served
	// from its own cache entry, or assembled entirely from point entries.
	CacheHit bool
	// PointsReused / PointsMeasured break down the assembly path: how many
	// (p, n) configurations came from the point cache versus being
	// measured by this request. A campaign-entry hit reports the whole
	// grid as reused.
	PointsReused   int
	PointsMeasured int
	// Body is EncodeOutcome of this outcome. Run and Memo set it on
	// campaign-entry hits, where the memory tier encoded it once for every
	// hit on the entry, so it is shared: callers must not write to it.
	// Misses leave it nil.
	Body []byte
}

// OutcomeBody is the canonical JSON shape of a finished submission, shared
// by reqserve's submit and fetch-by-key endpoints. points_reused and
// points_measured split the campaign into assembly (configurations served
// from the point cache, including everything behind a whole-campaign
// cache hit) versus execution (configurations this submission actually
// measured).
type OutcomeBody struct {
	Key            string `json:"key"`
	App            string `json:"app"`
	CacheHit       bool   `json:"cache_hit"`
	PointsReused   int    `json:"points_reused"`
	PointsMeasured int    `json:"points_measured"`
	// PointsSaved counts grid configurations the flight never executed at
	// all: 0 for fixed-grid campaigns (the report covers the whole grid),
	// positive for adaptive campaigns that stopped early.
	PointsSaved int                      `json:"points_saved"`
	Campaign    *workload.Campaign       `json:"campaign"`
	Report      *workload.CampaignReport `json:"report"`
}

// EncodeOutcome marshals out as an OutcomeBody. Servers build it once per
// flight and hand every coalesced waiter the same slice; the scheduler
// builds it once per memory-tier entry for campaign-entry hits
// (Outcome.Body).
func EncodeOutcome(out *Outcome) ([]byte, error) {
	app := ""
	if out.Campaign != nil {
		app = out.Campaign.App
	}
	saved := 0
	if out.Campaign != nil && out.Report != nil {
		full := len(out.Campaign.Grid.Procs) * len(out.Campaign.Grid.Ns)
		if n := full - out.Report.Configs; n > 0 {
			saved = n
		}
	}
	return json.Marshal(&OutcomeBody{
		Key:            out.Key.String(),
		App:            app,
		CacheHit:       out.CacheHit,
		PointsReused:   out.PointsReused,
		PointsMeasured: out.PointsMeasured,
		PointsSaved:    saved,
		Campaign:       out.Campaign,
		Report:         out.Report,
	})
}

// Options configures a Scheduler.
type Options struct {
	// Workers is the shared pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// MemEntries caps the in-memory campaign-entry LRU; <= 0 selects
	// DefaultMemEntries.
	MemEntries int
	// MemPoints caps the in-memory point-entry LRU; <= 0 selects
	// DefaultMemPoints.
	MemPoints int
	// Dir, when non-empty, enables the default on-disk store (DiskStore)
	// in that directory (created if absent). Multiple processes may share
	// one directory: the layout is one file per content-hashed key,
	// written via atomic rename, so concurrent writers shard a campaign's
	// points instead of corrupting each other.
	Dir string
	// Store, when non-nil, replaces the default DiskStore as the
	// persistent tier (Dir is then ignored). Implementations must satisfy
	// the Store contract: concurrent-safe, tolerant loads, atomic writes.
	Store Store
	// Logf receives the scheduler's rare operational warnings (currently
	// only the one emitted when store writes are disabled after a write
	// failure). nil selects log.Printf.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time view of a Scheduler's cache traffic, counted
// independently of any obs.Registry so tests and CLI summaries work
// without one.
type Stats struct {
	// Hits / Misses count campaign-level entry lookups in Run and Memo.
	Hits   int64
	Misses int64
	// PointHits / PointMisses count per-point lookups on the assembly path
	// (only taken after a campaign-level miss).
	PointHits   int64
	PointMisses int64
	// Bytes is the total marshaled entry bytes moved to or from the store.
	Bytes int64
	// DiskErrors counts store write failures; the first one stops further
	// store writes for the scheduler's life (reads stay live).
	DiskErrors int64
}

// Scheduler runs campaigns through one shared worker pool with a
// two-level result cache at two granularities: whole campaigns (the fast
// path) and individual (p, n) measurement points, from which a campaign
// with a cold key is assembled, measuring only the points no previous
// campaign covered. It is safe for concurrent use; Close releases the
// pool (outstanding Run calls must have returned).
type Scheduler struct {
	pool      *pool
	mem       *lru  // campaign-level entries
	pmem      *lru  // point-level entries
	store     Store // nil without Options.Dir/Options.Store
	logf      func(format string, args ...any)
	hits      atomic.Int64
	misses    atomic.Int64
	pointHits atomic.Int64
	pointMiss atomic.Int64
	bytes     atomic.Int64
	diskErrs  atomic.Int64
	// writeDown latches after the first store write failure: further
	// writes are skipped for the scheduler's life, but reads keep serving
	// the entries that are already there — a transient ENOSPC must not
	// stop a warm cache from answering.
	writeDown atomic.Bool
}

// New builds a Scheduler and starts its worker pool.
func New(o Options) (*Scheduler, error) {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mem := o.MemEntries
	if mem <= 0 {
		mem = DefaultMemEntries
	}
	memPoints := o.MemPoints
	if memPoints <= 0 {
		memPoints = DefaultMemPoints
	}
	logf := o.Logf
	if logf == nil {
		logf = log.Printf
	}
	s := &Scheduler{
		pool: newPool(workers),
		mem:  newLRU(mem),
		pmem: newLRU(memPoints),
		logf: logf,
	}
	switch {
	case o.Store != nil:
		s.store = o.Store
	case o.Dir != "":
		disk, err := OpenDiskStore(o.Dir)
		if err != nil {
			s.pool.close()
			return nil, err
		}
		s.store = disk
	}
	return s, nil
}

// Close stops the worker pool and waits for its workers to exit. It is
// idempotent — extra calls are no-ops — and later Run calls return
// ErrClosed. Run calls still in flight when Close fires finish the
// tasks the pool already accepted, then fail their remaining submissions
// with ErrClosed.
func (s *Scheduler) Close() { s.pool.close() }

// Closed reports whether Close has been called.
func (s *Scheduler) Closed() bool { return s.pool.closed() }

// Stats returns the cache traffic counted so far.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		PointHits:   s.pointHits.Load(),
		PointMisses: s.pointMiss.Load(),
		Bytes:       s.bytes.Load(),
		DiskErrors:  s.diskErrs.Load(),
	}
}

// Lookup returns the marshaled cache entry stored under key (memory first,
// then the store), without running anything. Servers use it to answer
// fetch-by-key requests; decode the bytes with Decode. The read path is
// never gated by write degradation: entries already on disk keep serving
// after an ENOSPC stopped new writes.
func (s *Scheduler) Lookup(ctx context.Context, key Key) ([]byte, bool) {
	if data, ok := s.mem.get(key); ok {
		return data, true
	}
	if s.store != nil {
		if data, ok := s.store.Load(ctx, key); ok {
			return data, true
		}
	}
	return nil, false
}

// LookupEntry returns the marshaled entry stored under key at either
// granularity — point entries first (the common case on the sharding
// path), then campaign entries, then the store. It backs the
// GET /v1/points/{key} endpoint, which must serve everything the
// scheduler persists, since peers write both kinds through one store.
func (s *Scheduler) LookupEntry(ctx context.Context, key Key) ([]byte, bool) {
	if data, ok := s.pmem.get(key); ok {
		return data, true
	}
	if data, ok := s.mem.get(key); ok {
		return data, true
	}
	if s.store != nil {
		if data, ok := s.store.Load(ctx, key); ok {
			return data, true
		}
	}
	return nil, false
}

// PutEntry validates and caches one marshaled entry under key, routing it
// to the matching memory tier and writing it through to the store. It
// backs the PUT /v1/points/{key} endpoint: peers sharding a campaign
// publish their fresh points here. Entries that do not decode under key —
// garbage bytes, a key mismatch, a stale KeyVersion — are rejected so one
// confused writer cannot poison the cache for everyone.
func (s *Scheduler) PutEntry(ctx context.Context, key Key, data []byte) error {
	kind, err := ValidateEntry(key, data)
	if err != nil {
		return err
	}
	switch kind {
	case PointEntry:
		s.pmem.put(key, data)
	case CampaignEntry:
		s.mem.put(key, data)
	}
	s.storeWrite(ctx, key, data, cacheMetrics{})
	return nil
}

// StoreStatus reports the persistence tier's health: which kind of store
// backs the scheduler, whether writes have degraded (the scheduler's own
// latch or the store's), and whether a remote circuit breaker is open.
// Serving is unaffected in every degraded state — campaigns just stop
// benefiting from the broken tier — so /readyz reports these as status,
// not failure.
func (s *Scheduler) StoreStatus() StoreStatus {
	st := StoreStatus{Kind: "memory"}
	if s.store != nil {
		st.Kind = "store"
		if r, ok := s.store.(StatusReporter); ok {
			st = r.Status()
		}
	}
	if s.writeDown.Load() {
		st.WritesDegraded = true
	}
	return st
}

// Flush forces the store's completed writes durable (fsync) and, for
// tiered stores, drains the remote write-behind queue. It is a no-op
// without a store or after writes degraded. Entries are already written
// through synchronously, so Flush is a belt — drain paths call it so a
// SIGTERM cannot race the last directory update or strand queued remote
// writes.
func (s *Scheduler) Flush(ctx context.Context) error {
	if s.store == nil || s.writeDown.Load() {
		return nil
	}
	return s.store.Sync(ctx)
}

// storeWrite persists one entry to the store unless writes have degraded.
// The first failure latches writeDown — counted once, warned once — and
// later calls are no-ops; reads are never affected. Safe for concurrent
// use (point entries are published from pool workers).
func (s *Scheduler) storeWrite(ctx context.Context, key Key, data []byte, cm cacheMetrics) {
	if s.store == nil || s.writeDown.Load() {
		return
	}
	if err := s.store.Store(ctx, key, data); err != nil {
		if s.writeDown.CompareAndSwap(false, true) {
			s.diskErrs.Add(1)
			cm.diskErr.Inc()
			s.logf("campaign: cache store write failed, degrading to memory-only writes (reads stay live): %v", err)
		}
		return
	}
	s.bytes.Add(int64(len(data)))
	cm.bytes.Add(int64(len(data)))
}

// Run measures one campaign, serving it from cache when an identical one
// has been measured before, and assembling it from per-point entries when
// only parts of it have: a fixed-grid request is Memo over its
// ComputeKey, and after a campaign-level miss every (p, n)
// configuration is looked up under its own content address
// (ComputePointKey), cached points are slotted in without running
// anything, and only the missing points are measured on the shared pool
// via ResilientRunner — so a grid that overlaps a previous campaign pays
// only for its novel points. Freshly measured points are published to the
// point cache as they complete (other processes sharing the store pick
// them up mid-campaign), and the finished campaign is stored whole under
// its campaign key as a fast path for exact reruns. A point-set request
// (Request.Points) takes the same point path and skips the campaign
// entry on both ends. Failed campaigns are never cached at campaign
// level, but their completed points are; their report, when the runner
// produced one, is returned alongside the error so callers can render the
// partial account. A store write failure
// (ENOSPC, a directory deleted under a long-lived server, ...) never
// fails the request: the scheduler counts it (Stats.DiskErrors,
// cache_disk_error), warns once through Options.Logf, and stops writing
// to the store for the rest of its life — reads keep serving the entries
// already there, and the measured outcome is served normally.
func (s *Scheduler) Run(ctx context.Context, req Request) (*Outcome, error) {
	if req.Points == nil {
		key := ComputeKey(req)
		return s.Memo(ctx, req, key, func(ctx context.Context) (*Outcome, error) {
			return s.measure(ctx, req, key)
		})
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if s.pool.closed() {
		return nil, ErrClosed
	}
	return s.measure(ctx, req, Key{})
}

// Memo answers req from the campaign entry under key — memory first, then
// the store — and otherwise calls run, stores the campaign it returns
// under key, and returns its outcome. Hits, misses and bytes are counted
// in Stats and req.Metrics; a failed run stores nothing. A hit reports
// the entry's configurations done and reused through req's progress
// callbacks, out of req's grid, and carries the shared Body. The adaptive
// engine memoizes its refinement loop this way under the adaptive key.
func (s *Scheduler) Memo(ctx context.Context, req Request, key Key, run func(context.Context) (*Outcome, error)) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.pool.closed() {
		return nil, ErrClosed
	}
	cm := newCacheMetrics(req.Metrics)
	if out := s.cached(ctx, req, key, cm); out != nil {
		return out, nil
	}
	s.misses.Add(1)
	cm.miss.Inc()
	out, err := run(ctx)
	if err != nil {
		return out, err
	}
	data, err := EncodeEntry(key, appName(req.App), out.Campaign, out.Report)
	if err != nil {
		// Campaigns are plain data; this cannot happen. Degrade loudly.
		return out, err
	}
	s.mem.put(key, data)
	s.storeWrite(ctx, key, data, cm)
	return out, nil
}

// measure runs req through the point path: prefill from the point cache,
// measure the rest on the shared pool, publish each measured point. key
// is the outcome's campaign key, zero for a point-set request.
func (s *Scheduler) measure(ctx context.Context, req Request, key Key) (*Outcome, error) {
	cm := newCacheMetrics(req.Metrics)
	// Counting and reporting a point is one step under pointMu, so
	// PointProgress never sees a count go backwards.
	var pointMu sync.Mutex
	var reused, measured int
	countPoint := func(n *int) {
		pointMu.Lock()
		defer pointMu.Unlock()
		*n++
		if req.PointProgress != nil {
			req.PointProgress(reused, measured)
		}
	}
	r := &workload.ResilientRunner{
		App:       req.App,
		Faults:    req.Faults,
		Retries:   req.Retries,
		MinPoints: req.MinPoints,
		Points:    req.Points,
		Metrics:   req.Metrics,
		Tracer:    req.Tracer,
		Progress:  req.Progress,
		Exec:      s.exec(ctx),
		Prefill: func(pctx context.Context, p, n int) (workload.Sample, workload.ConfigOutcome, bool) {
			sm, out, ok := s.loadPoint(pctx, req, p, n, cm)
			if ok {
				countPoint(&reused)
			}
			return sm, out, ok
		},
		OnConfig: func(pctx context.Context, sm workload.Sample, out workload.ConfigOutcome) {
			countPoint(&measured)
			s.publishPoint(pctx, req, sm, out, cm)
		},
	}
	c, rep, err := r.Run(ctx, req.Grid)
	outcome := &Outcome{Report: rep, Key: key, PointsReused: reused, PointsMeasured: measured}
	if err != nil {
		return outcome, err
	}
	outcome.Campaign = c
	// Nothing measured means the whole grid came from cache — the
	// campaign key was cold but every point was warm.
	outcome.CacheHit = outcome.PointsMeasured == 0
	return outcome, nil
}

// cached serves req from its campaign entry — memory first, then the
// store — or returns nil on a miss.
func (s *Scheduler) cached(ctx context.Context, req Request, key Key, cm cacheMetrics) *Outcome {
	if data, h, ok := s.mem.getHit(key); ok {
		if h == nil {
			// The first memory hit on bytes a miss or PutEntry put decodes
			// them for every later hit. An undecodable in-memory entry
			// cannot normally happen (we only store bytes we encoded or
			// validated); it falls through and is remeasured.
			if h, _ = decodeHit(key, data); h != nil {
				h = s.mem.attach(key, data, h)
			}
		}
		if h != nil {
			return s.hit(req, key, h, cm)
		}
	}
	if s.store != nil {
		if data, ok := s.store.Load(ctx, key); ok {
			if h, err := decodeHit(key, data); err == nil {
				s.bytes.Add(int64(len(data)))
				cm.bytes.Add(int64(len(data)))
				return s.hit(req, key, s.mem.putHit(key, data, h), cm)
			}
			// Corrupt stored entry: treat as a miss; the fresh result
			// overwrites it atomically.
		}
	}
	return nil
}

// decodeHit decodes a campaign entry into the memory tier's form of it:
// the tier's private campaign and report, and the response body of a hit
// on them, which reports every configuration of the report as reused —
// the grid of a fixed-grid entry, the selection of an adaptive one.
func decodeHit(key Key, data []byte) (*hitForm, error) {
	c, rep, err := Decode(key, data)
	if err != nil {
		return nil, err
	}
	h := &hitForm{campaign: c, report: rep, reused: rep.Configs}
	if h.body, err = EncodeOutcome(h.outcome(key, c, rep)); err != nil {
		return nil, err
	}
	return h, nil
}

// hit counts a campaign-entry hit, reports the entry's configurations
// done and reused in one callback each, and hands the caller fresh clones
// of the tier's objects together with the shared body.
func (s *Scheduler) hit(req Request, key Key, h *hitForm, cm cacheMetrics) *Outcome {
	s.hits.Add(1)
	cm.hit.Inc()
	if req.Progress != nil {
		req.Progress(h.reused, len(req.Grid.Procs)*len(req.Grid.Ns))
	}
	if req.PointProgress != nil {
		req.PointProgress(h.reused, 0)
	}
	out := h.outcome(key, h.campaign.Clone(), h.report.Clone())
	out.Body = h.body
	return out
}

// loadPoint looks one (p, n) configuration up in the point cache (memory
// first, then the store). A hit decodes and validates, and must describe
// (p, n) itself; anything else — unreadable bytes, or an entry filed
// under the wrong point — degrades to a miss and is re-measured.
func (s *Scheduler) loadPoint(ctx context.Context, req Request, p, n int, cm cacheMetrics) (workload.Sample, workload.ConfigOutcome, bool) {
	pk := ComputePointKey(req, p, n)
	data, ok := s.pmem.get(pk)
	fromStore := false
	if !ok && s.store != nil {
		data, ok = s.store.Load(ctx, pk)
		fromStore = ok
	}
	if ok {
		// decodePoint has checked that the sample names the outcome's point.
		if sm, out, err := decodePoint(pk, data); err == nil && out.P == p && out.N == n {
			if fromStore {
				s.pmem.put(pk, data)
				s.bytes.Add(int64(len(data)))
				cm.bytes.Add(int64(len(data)))
			}
			s.pointHits.Add(1)
			cm.pointHit.Inc()
			return sm, out, true
		}
	}
	s.pointMiss.Add(1)
	cm.pointMiss.Inc()
	return workload.Sample{}, workload.ConfigOutcome{}, false
}

// publishPoint stores one freshly measured configuration in the point
// cache, making it reusable by later campaigns (and, through the store,
// by concurrent processes) the moment it completes. Runs on pool workers.
func (s *Scheduler) publishPoint(ctx context.Context, req Request, sm workload.Sample, out workload.ConfigOutcome, cm cacheMetrics) {
	pk := ComputePointKey(req, out.P, out.N)
	data, err := encodePoint(pk, appName(req.App), sm, out)
	if err != nil {
		return // plain data; cannot happen
	}
	s.pmem.put(pk, data)
	s.storeWrite(ctx, pk, data, cm)
}

// exec adapts the shared pool to a single campaign's ExecFunc. Submission
// stops at context cancellation; tasks already running complete first (the
// runner's slots stay consistent), then the cause is reported.
func (s *Scheduler) exec(ctx context.Context) workload.ExecFunc {
	return func(n int, run func(i int)) error {
		var done sync.WaitGroup
		done.Add(n)
		var err error
		submitted := 0
		for i := 0; i < n; i++ {
			t := task{run: run, i: i, done: &done}
			select {
			case s.pool.tasks <- t:
				submitted++
			case <-ctx.Done():
				err = context.Cause(ctx)
			case <-s.pool.quit:
				err = ErrClosed
			}
			if err != nil {
				break
			}
		}
		for i := submitted; i < n; i++ {
			done.Done()
		}
		done.Wait()
		return err
	}
}

// cacheMetrics resolves the cache counters once per request; without a
// registry every counter is nil and its updates do nothing.
type cacheMetrics struct {
	hit, miss, pointHit, pointMiss, bytes, diskErr *obs.Counter
}

func newCacheMetrics(reg *obs.Registry) cacheMetrics {
	return cacheMetrics{
		hit:       reg.Counter(MetricCacheHit),
		miss:      reg.Counter(MetricCacheMiss),
		pointHit:  reg.Counter(MetricCachePointHit),
		pointMiss: reg.Counter(MetricCachePointMiss),
		bytes:     reg.Counter(MetricCacheBytes),
		diskErr:   reg.Counter(MetricCacheDiskError),
	}
}

// task is one unit of pool work: slot i of some campaign's grid.
type task struct {
	run  func(i int)
	i    int
	done *sync.WaitGroup
}

// pool is the shared worker pool. It is deliberately simple: a fixed set
// of goroutines draining one unbuffered channel. Campaign goroutines block
// in exec while submitting, workers never block on campaigns, so the two
// layers cannot deadlock. Shutdown goes through a quit channel instead of
// closing tasks: submitters select on quit and fail with ErrClosed, so a
// Run racing Close degrades to an error instead of a send-on-closed-channel
// panic, and close is idempotent.
type pool struct {
	tasks chan task
	quit  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

func newPool(workers int) *pool {
	p := &pool{tasks: make(chan task), quit: make(chan struct{})}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func(w int) {
			defer p.wg.Done()
			labels := pprof.Labels("pool", "campaign.Scheduler",
				"worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) {
				for {
					select {
					case <-p.quit:
						return
					case t := <-p.tasks:
						t.run(t.i)
						t.done.Done()
					}
				}
			})
		}(w)
	}
	return p
}

func (p *pool) close() {
	p.once.Do(func() { close(p.quit) })
	p.wg.Wait()
}

func (p *pool) closed() bool {
	select {
	case <-p.quit:
		return true
	default:
		return false
	}
}

// appName tolerates a nil App so ComputeKey never panics; the runner
// rejects the nil App with a proper error.
func appName(a apps.App) string {
	if a == nil {
		return ""
	}
	return a.Name()
}

// Package serve is the unit-testable core of cmd/reqserve: a multi-tenant
// campaign service wrapped around the campaign.Scheduler, with the
// production-robustness machinery implemented away from any socket.
//
// Four mechanisms keep the service correct and responsive when clients
// pile up:
//
//   - Single-flight coalescing. Submissions are keyed on the campaign's
//     content hash (campaign.Key); N concurrent identical submissions
//     attach to one execution and every waiter receives the same
//     byte-identical response body. A waiter whose context is cancelled
//     detaches without disturbing the shared execution; when the last
//     waiter detaches, the execution itself is cancelled so abandoned
//     clients free their pool workers.
//
//   - Admission control and backpressure. A bounded count of admitted
//     flights sits in front of the shared worker pool, and each tenant
//     draws from its own token bucket. Over-limit submissions are shed
//     with a typed ShedError carrying a Retry-After hint instead of
//     queueing unboundedly.
//
//   - Deadline enforcement. Every waiter's context flows into the shared
//     execution through the scheduler into the simmpi cancel machinery, so
//     a deadline or a disconnected client stops simulated ranks, not just
//     the HTTP goroutine.
//
//   - Graceful drain. Drain stops admission, waits for in-flight
//     campaigns up to a drain timeout, cancels the stragglers, flushes the
//     disk cache, and lands the server in StateDrained. The lifecycle is
//     an explicit state machine (serving → draining → drained) that
//     /readyz exposes.
//
// All request accounting flows through the obs RED instruments
// (server_requests_total, server_errors_total, server_shed_total,
// server_coalesce_hits, server_queue_depth, server_inflight,
// server_request_seconds).
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"extrareq/internal/adaptive"
	"extrareq/internal/campaign"
	"extrareq/internal/obs"
)

// Runner is the slice of campaign.Scheduler the server needs. Tests
// substitute controllable fakes; production wires the real scheduler.
type Runner interface {
	Run(ctx context.Context, req campaign.Request) (*campaign.Outcome, error)
	Lookup(ctx context.Context, k campaign.Key) ([]byte, bool)
	// LookupEntry and PutEntry are the point-protocol surface
	// (GET/PUT /v1/points/{key}): entries at either granularity, validated
	// on write so peers cannot poison the cache.
	LookupEntry(ctx context.Context, k campaign.Key) ([]byte, bool)
	PutEntry(ctx context.Context, k campaign.Key, data []byte) error
	// StoreStatus feeds /readyz: degraded persistence is reported as
	// status, not unreadiness.
	StoreStatus() campaign.StoreStatus
	Flush(ctx context.Context) error
}

// Admission/lifecycle errors. They surface wrapped in a ShedError carrying
// the Retry-After hint; match with errors.Is.
var (
	// ErrQueueFull rejects a submission because the admission queue is at
	// capacity.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrRateLimited rejects a submission because its tenant is over rate.
	ErrRateLimited = errors.New("serve: tenant over rate limit")
	// ErrDraining rejects a submission because the server is shutting down.
	ErrDraining = errors.New("serve: server is draining")
)

// ShedError is an admission rejection: the typed reason plus how long the
// client should back off. It unwraps to one of ErrQueueFull,
// ErrRateLimited, ErrDraining.
type ShedError struct {
	Reason     error
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Reason, e.RetryAfter)
}

func (e *ShedError) Unwrap() error { return e.Reason }

// State is the server lifecycle: Serving admits work, Draining finishes
// it, Drained is terminal.
type State int32

const (
	StateServing State = iota
	StateDraining
	StateDrained
)

func (s State) String() string {
	switch s {
	case StateServing:
		return "serving"
	case StateDraining:
		return "draining"
	case StateDrained:
		return "drained"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Defaults for Options fields left zero.
const (
	DefaultQueue          = 64
	DefaultTenantBurst    = 8
	DefaultDrainTimeout   = 10 * time.Second
	DefaultAsyncTimeout   = 5 * time.Minute
	DefaultRequestTimeout = time.Minute
	// queueFullRetryAfter is the backoff hint for queue-full and draining
	// sheds; rate-limit sheds compute the exact token wait instead.
	queueFullRetryAfter = time.Second
)

// Options configures a Server.
type Options struct {
	// Runner executes campaigns (usually a *campaign.Scheduler). Required.
	Runner Runner
	// Queue bounds the number of admitted, unfinished flights (coalesced
	// waiters do not count — they ride an admitted flight). <= 0 selects
	// DefaultQueue.
	Queue int
	// TenantRate is each tenant's sustained admission rate in new flights
	// per second; <= 0 disables per-tenant rate limiting.
	TenantRate float64
	// TenantBurst is each tenant's bucket capacity. <= 0 selects
	// DefaultTenantBurst.
	TenantBurst int
	// RequestTimeout is the per-request budget the HTTP layer applies to
	// waiters that bring no deadline of their own. <= 0 selects
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// AsyncTimeout bounds fire-and-forget (wait=false) executions, which
	// have no waiter deadline to inherit. <= 0 selects DefaultAsyncTimeout.
	AsyncTimeout time.Duration
	// DrainTimeout is how long Drain waits for in-flight campaigns before
	// cancelling them. <= 0 selects DefaultDrainTimeout.
	DrainTimeout time.Duration
	// Metrics receives the server RED instruments and rides into every
	// campaign request (cache_*, campaign_* counters). nil disables
	// accounting.
	Metrics *obs.Registry
	// Logf receives operational log lines. nil selects log.Printf.
	Logf func(format string, args ...any)
	// now replaces time.Now in tests.
	now func() time.Time
}

// Result is one waiter's view of a finished submission.
type Result struct {
	// Outcome is the shared execution's outcome.
	Outcome *campaign.Outcome
	// Body is the canonical JSON response (campaign.EncodeOutcome), built
	// once per flight, or taken from the scheduler's memory tier on a
	// campaign-entry hit; every waiter of one flight receives these exact
	// bytes. It may be shared beyond the flight: do not write to it.
	Body []byte
	// Coalesced reports that this submission attached to an execution
	// started by an earlier identical submission.
	Coalesced bool
}

// JobStatus is a progress snapshot of one submission key.
type JobStatus struct {
	Key   string `json:"key"`
	State string `json:"state"` // "running" or "done"
	// DoneConfigs/TotalConfigs track grid configurations finished so far
	// (0/0 until the runner reports).
	DoneConfigs  int `json:"done_configs"`
	TotalConfigs int `json:"total_configs"`
	// PointsReused/PointsMeasured split the finished configurations into
	// assembly (served from the point cache) versus execution (measured by
	// this flight), so clients can watch how much of a running campaign is
	// being reused.
	PointsReused   int `json:"points_reused"`
	PointsMeasured int `json:"points_measured"`
	// PointsSaved counts grid configurations an adaptive flight decided
	// never to measure. The engine cannot know what it will skip before it
	// stops, so the field is 0 while running and jumps to its final value
	// when the flight commits — which keeps it monotone across snapshots
	// (see ValidateProgress). Always 0 for fixed-grid flights.
	PointsSaved int `json:"points_saved"`
	// Waiters is the number of clients currently attached.
	Waiters int `json:"waiters"`
	// Attached counts every submission that ever joined this flight.
	Attached int64 `json:"attached"`
	// Cached marks a key answered from the campaign cache with no active
	// flight.
	Cached bool `json:"cached,omitempty"`
}

// Server is the service core. Create with New, serve requests with Do /
// Start, shut down with Drain.
type Server struct {
	opts       Options
	red        *obs.RED
	base       context.Context
	baseCancel context.CancelFunc
	logf       func(format string, args ...any)

	mu       sync.Mutex
	state    State
	flights  map[campaign.Key]*flight
	admitted int
	tenants  map[string]*bucket
	inflight sync.WaitGroup

	running atomic.Int64
}

// flight is one shared campaign execution plus its bookkeeping. waiters is
// guarded by the server mutex; the result fields are written once by the
// execution goroutine before done is closed.
type flight struct {
	key      campaign.Key
	async    bool
	done     chan struct{}
	cancel   context.CancelFunc
	out      *campaign.Outcome
	err      error
	body     []byte
	waiters  int
	attached atomic.Int64
	doneCfg  atomic.Int64
	totalCfg atomic.Int64
	reused   atomic.Int64
	measured atomic.Int64
	saved    atomic.Int64
}

// New builds a Server around opts.Runner.
func New(opts Options) (*Server, error) {
	if opts.Runner == nil {
		return nil, errors.New("serve: Options.Runner is required")
	}
	if opts.Queue <= 0 {
		opts.Queue = DefaultQueue
	}
	if opts.TenantBurst <= 0 {
		opts.TenantBurst = DefaultTenantBurst
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.AsyncTimeout <= 0 {
		opts.AsyncTimeout = DefaultAsyncTimeout
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = DefaultDrainTimeout
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	base, cancel := context.WithCancel(context.Background())
	return &Server{
		opts:       opts,
		red:        obs.NewRED(opts.Metrics),
		base:       base,
		baseCancel: cancel,
		logf:       logf,
		flights:    map[campaign.Key]*flight{},
		tenants:    map[string]*bucket{},
	}, nil
}

// State returns the lifecycle state.
func (s *Server) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Do submits a campaign and waits for its outcome. Identical concurrent
// submissions coalesce onto one execution; every waiter gets the same
// byte-identical Result.Body (and the same error, when the execution
// fails). Cancelling ctx detaches this waiter only — the shared execution
// keeps running for the others, and is cancelled when the last waiter
// leaves. A non-nil aopts replaces fixed-grid measurement with
// model-driven grid refinement (internal/adaptive): the grid is treated as
// the candidate space and only the most informative configurations are
// measured. Adaptive submissions coalesce on the adaptive campaign key
// (seed spec + resolved options), so identical adaptive submissions share
// one refinement loop and never collide with a fixed-grid submission of
// the same spec, which measures different work.
func (s *Server) Do(ctx context.Context, tenant string, req campaign.Request, aopts *adaptive.Options) (*Result, error) {
	start := s.opts.now()
	s.red.Request()
	f, isNew, err := s.admit(tenant, req, aopts, false)
	if err != nil {
		s.red.Shed()
		return nil, err
	}
	if !isNew {
		s.red.Coalesced()
	}
	defer func() {
		s.red.ObserveLatency(s.opts.now().Sub(start).Seconds())
	}()
	select {
	case <-f.done:
		if f.err != nil {
			s.red.Error()
			return &Result{Outcome: f.out, Coalesced: !isNew}, f.err
		}
		return &Result{Outcome: f.out, Body: f.body, Coalesced: !isNew}, nil
	case <-ctx.Done():
		s.detach(f)
		s.red.Error()
		return nil, context.Cause(ctx)
	}
}

// Start submits a campaign without waiting (fire-and-forget): admission
// and coalescing behave exactly like Do, adaptive options included, but
// the caller gets the key back immediately and polls Job for progress.
// The execution is bounded by AsyncTimeout instead of a waiter deadline.
// Job snapshots of an adaptive flight additionally report points_saved
// once the flight commits.
func (s *Server) Start(tenant string, req campaign.Request, aopts *adaptive.Options) (campaign.Key, error) {
	s.red.Request()
	f, isNew, err := s.admit(tenant, req, aopts, true)
	if err != nil {
		s.red.Shed()
		return campaign.Key{}, err
	}
	if !isNew {
		s.red.Coalesced()
	}
	return f.key, nil
}

// admit is the single gate in front of the pool: lifecycle check,
// coalesce, tenant bucket, queue bound — in that order. Coalesced attaches
// are free (they add no work); only new flights charge the tenant bucket
// and occupy queue slots.
func (s *Server) admit(tenant string, req campaign.Request, aopts *adaptive.Options, async bool) (*flight, bool, error) {
	// Adaptive submissions coalesce on the adaptive key (seed spec +
	// resolved options): two adaptive submissions with the same knobs share
	// one refinement loop, while a fixed-grid submission of the same spec —
	// different work, different result — runs separately.
	key := campaign.ComputeKey(req)
	if aopts != nil {
		key = adaptive.ComputeKey(req, *aopts)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateServing {
		return nil, false, &ShedError{Reason: ErrDraining, RetryAfter: queueFullRetryAfter}
	}
	if f, ok := s.flights[key]; ok {
		if !async {
			f.waiters++
		}
		f.attached.Add(1)
		return f, false, nil
	}
	if s.opts.TenantRate > 0 {
		b := s.tenantBucket(tenant)
		if wait := b.take(s.opts.now(), s.opts.TenantRate, float64(s.opts.TenantBurst)); wait > 0 {
			return nil, false, &ShedError{Reason: ErrRateLimited, RetryAfter: wait}
		}
	}
	if s.admitted >= s.opts.Queue {
		return nil, false, &ShedError{Reason: ErrQueueFull, RetryAfter: queueFullRetryAfter}
	}

	fctx, cancel := context.WithCancel(s.base)
	if async {
		fctx, cancel = context.WithTimeout(s.base, s.opts.AsyncTimeout)
	}
	f := &flight{key: key, async: async, done: make(chan struct{}), cancel: cancel}
	if !async {
		f.waiters = 1
	}
	f.attached.Store(1)
	s.flights[key] = f
	s.admitted++
	s.red.SetQueueDepth(s.admitted)
	s.inflight.Add(1)
	go s.execute(fctx, f, req, aopts)
	return f, true, nil
}

// detach removes one waiter from f. The last sync waiter to leave cancels
// the shared execution (nobody is listening anymore) and unmaps the
// flight so late identical submissions start fresh instead of attaching
// to a dying execution.
func (s *Server) detach(f *flight) {
	s.mu.Lock()
	select {
	case <-f.done:
		s.mu.Unlock()
		return
	default:
	}
	f.waiters--
	last := f.waiters == 0 && !f.async
	if last {
		if cur, ok := s.flights[f.key]; ok && cur == f {
			delete(s.flights, f.key)
		}
	}
	s.mu.Unlock()
	if last {
		f.cancel()
	}
}

// execute runs one flight to completion on the scheduler and publishes its
// result. It is the only writer of f.out/f.err/f.body, strictly before
// close(f.done).
func (s *Server) execute(ctx context.Context, f *flight, req campaign.Request, aopts *adaptive.Options) {
	defer s.inflight.Done()
	s.red.SetInflight(int(s.running.Add(1)))
	if req.Metrics == nil {
		req.Metrics = s.opts.Metrics
	}
	// Store total before done: a Job snapshot between the two stores must
	// never observe done > total (ValidateProgress enforces consistency on
	// the watch stream).
	req.Progress = func(done, total int) {
		f.totalCfg.Store(int64(total))
		f.doneCfg.Store(int64(done))
	}
	req.PointProgress = func(reused, measured int) {
		f.reused.Store(int64(reused))
		f.measured.Store(int64(measured))
	}
	var out *campaign.Outcome
	var err error
	if aopts != nil {
		o := *aopts
		o.Progress = func(u adaptive.Update) {
			// Saved is 0 until the engine commits, so this store flips the
			// snapshot field exactly once, keeping it monotone.
			if u.Saved > 0 {
				f.saved.Store(int64(u.Saved))
			}
		}
		var res *adaptive.Result
		res, err = adaptive.Run(ctx, s.opts.Runner, req, o)
		if res != nil {
			out = &campaign.Outcome{
				Campaign:       res.Campaign,
				Report:         res.Report,
				Key:            res.Key,
				CacheHit:       res.CacheHit,
				PointsReused:   res.PointsReused,
				PointsMeasured: res.PointsMeasured,
			}
		}
	} else {
		out, err = s.opts.Runner.Run(ctx, req)
	}
	f.out, f.err = out, err
	if err == nil {
		// Campaign-entry hits arrive with their body; misses and adaptive
		// flights are encoded here, once per flight.
		f.body = out.Body
		if f.body == nil {
			if f.body, err = campaign.EncodeOutcome(out); err != nil {
				// Outcomes are plain data; this cannot normally happen.
				f.err = err
			}
		}
	}
	s.mu.Lock()
	if cur, ok := s.flights[f.key]; ok && cur == f {
		delete(s.flights, f.key)
	}
	s.admitted--
	s.red.SetQueueDepth(s.admitted)
	s.mu.Unlock()
	s.red.SetInflight(int(s.running.Add(-1)))
	f.cancel()
	close(f.done)
}

// Job reports progress for a key: an active flight ("running"), a cached
// result ("done"), or nothing.
func (s *Server) Job(ctx context.Context, key campaign.Key) (JobStatus, bool) {
	s.mu.Lock()
	f, ok := s.flights[key]
	var st JobStatus
	if ok {
		st = JobStatus{
			Key:            key.String(),
			State:          "running",
			DoneConfigs:    int(f.doneCfg.Load()),
			TotalConfigs:   int(f.totalCfg.Load()),
			PointsReused:   int(f.reused.Load()),
			PointsMeasured: int(f.measured.Load()),
			PointsSaved:    int(f.saved.Load()),
			Waiters:        f.waiters,
			Attached:       f.attached.Load(),
		}
	}
	s.mu.Unlock()
	if ok {
		return st, true
	}
	if _, ok := s.opts.Runner.Lookup(ctx, key); ok {
		return JobStatus{Key: key.String(), State: "done", Cached: true}, true
	}
	return JobStatus{}, false
}

// ValidateProgress checks that cur is a legal successor of prev in a
// sequence of Job snapshots of one flight: the cumulative counters never
// move backwards, and each snapshot is internally consistent (done and the
// reuse/measure/save split never exceed the total once a total is known).
// The SSE watch endpoint drops snapshots that fail this check instead of
// streaming them — a torn read between two atomic counters must not reach
// clients as regressing progress.
func ValidateProgress(prev, cur JobStatus) error {
	type mono struct {
		name      string
		prev, cur int64
	}
	checks := []mono{
		{"done_configs", int64(prev.DoneConfigs), int64(cur.DoneConfigs)},
		{"total_configs", int64(prev.TotalConfigs), int64(cur.TotalConfigs)},
		{"points_reused", int64(prev.PointsReused), int64(cur.PointsReused)},
		{"points_measured", int64(prev.PointsMeasured), int64(cur.PointsMeasured)},
		{"points_saved", int64(prev.PointsSaved), int64(cur.PointsSaved)},
		{"attached", prev.Attached, cur.Attached},
	}
	for _, c := range checks {
		if c.cur < c.prev {
			return fmt.Errorf("serve: %s regressed from %d to %d", c.name, c.prev, c.cur)
		}
	}
	if cur.TotalConfigs > 0 {
		if cur.DoneConfigs > cur.TotalConfigs {
			return fmt.Errorf("serve: done_configs %d exceeds total_configs %d", cur.DoneConfigs, cur.TotalConfigs)
		}
		if cur.PointsReused+cur.PointsMeasured+cur.PointsSaved > cur.TotalConfigs {
			return fmt.Errorf("serve: points split %d+%d+%d exceeds total_configs %d",
				cur.PointsReused, cur.PointsMeasured, cur.PointsSaved, cur.TotalConfigs)
		}
	}
	return nil
}

// Drain is the shutdown half of the state machine: stop admitting, let
// in-flight campaigns finish within DrainTimeout (or until ctx fires),
// cancel the stragglers through the simmpi cancel machinery, flush the
// disk cache, land in StateDrained. It returns nil when everything
// finished on its own, the flush error otherwise. Extra calls join the
// same drain.
func (s *Server) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.state == StateServing {
		s.state = StateDraining
		s.logf("reqserve: draining (timeout %s)", s.opts.DrainTimeout)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.opts.DrainTimeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		s.logf("reqserve: drain timeout, cancelling in-flight campaigns")
		s.baseCancel()
		<-done
	case <-ctx.Done():
		s.logf("reqserve: drain aborted by caller, cancelling in-flight campaigns")
		s.baseCancel()
		<-done
	}
	err := s.opts.Runner.Flush(ctx)
	if err != nil {
		s.logf("reqserve: cache flush during drain failed: %v", err)
	}
	s.baseCancel() // every flight is done; release the base context
	s.mu.Lock()
	s.state = StateDrained
	s.mu.Unlock()
	s.logf("reqserve: drained")
	return err
}

// tenantBucket returns tenant's bucket, creating it full. Called with s.mu
// held. The map is pruned of long-idle tenants when it grows large, so a
// tenant-per-request client cannot grow it without bound.
func (s *Server) tenantBucket(tenant string) *bucket {
	if len(s.tenants) > maxTenants {
		now := s.opts.now()
		for name, b := range s.tenants {
			if now.Sub(b.last) > tenantIdleEvict {
				delete(s.tenants, name)
			}
		}
	}
	b, ok := s.tenants[tenant]
	if !ok {
		b = &bucket{tokens: float64(s.opts.TenantBurst), last: s.opts.now()}
		s.tenants[tenant] = b
	}
	return b
}

const (
	maxTenants      = 4096
	tenantIdleEvict = time.Minute
)

// bucket is a token bucket: refilled continuously at the server's tenant
// rate, drained one token per admitted flight. Guarded by the server
// mutex.
type bucket struct {
	tokens float64
	last   time.Time
}

// take consumes one token, refilling first. It returns 0 on success, or
// how long until a token would be available.
func (b *bucket) take(now time.Time, rate, burst float64) time.Duration {
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens = math.Min(burst, b.tokens+elapsed*rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0
	}
	wait := (1 - b.tokens) / rate
	return time.Duration(wait * float64(time.Second))
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/obs"
	"extrareq/internal/workload"
)

// stubRunner is a controllable Runner: executions can be held on a gate
// channel so tests decide exactly when work finishes, and every execution
// is counted.
type stubRunner struct {
	runs      atomic.Int64
	cancelled atomic.Int64
	flushed   atomic.Int64
	gate      chan struct{} // nil = finish immediately
	err       error         // returned instead of an outcome when non-nil

	mu     sync.Mutex
	lookup map[string][]byte
	status campaign.StoreStatus
}

func (r *stubRunner) Run(ctx context.Context, req campaign.Request) (*campaign.Outcome, error) {
	r.runs.Add(1)
	if req.Progress != nil {
		req.Progress(1, 2)
	}
	if r.gate != nil {
		select {
		case <-r.gate:
		case <-ctx.Done():
			r.cancelled.Add(1)
			return nil, context.Cause(ctx)
		}
	}
	if req.Progress != nil {
		req.Progress(2, 2)
	}
	if r.err != nil {
		return &campaign.Outcome{Key: campaign.ComputeKey(req)}, r.err
	}
	key := campaign.ComputeKey(req)
	return &campaign.Outcome{
		Campaign: &workload.Campaign{App: "stub", Grid: req.Grid},
		Report:   &workload.CampaignReport{App: "stub", Configs: len(req.Grid.Procs) * len(req.Grid.Ns)},
		Key:      key,
	}, nil
}

// Memo memoizes nothing: it always runs.
func (r *stubRunner) Memo(ctx context.Context, _ campaign.Request, _ campaign.Key,
	run func(context.Context) (*campaign.Outcome, error)) (*campaign.Outcome, error) {
	return run(ctx)
}

func (r *stubRunner) Lookup(_ context.Context, k campaign.Key) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, ok := r.lookup[k.String()]
	return data, ok
}

func (r *stubRunner) LookupEntry(ctx context.Context, k campaign.Key) ([]byte, bool) {
	return r.Lookup(ctx, k)
}

func (r *stubRunner) PutEntry(_ context.Context, k campaign.Key, data []byte) error {
	if _, err := campaign.ValidateEntry(k, data); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lookup == nil {
		r.lookup = map[string][]byte{}
	}
	r.lookup[k.String()] = data
	return nil
}

func (r *stubRunner) StoreStatus() campaign.StoreStatus { return r.status }

func (r *stubRunner) Flush(context.Context) error {
	r.flushed.Add(1)
	return nil
}

// stubReq builds a distinct request per seed; keys differ with the seed.
func stubReq(seed int64) campaign.Request {
	return campaign.Request{Grid: workload.Grid{Procs: []int{2}, Ns: []int{64}, Seed: seed}}
}

func newTestServer(t *testing.T, opts Options) (*Server, *stubRunner) {
	t.Helper()
	stub, _ := opts.Runner.(*stubRunner)
	if stub == nil {
		stub = &stubRunner{}
		opts.Runner = stub
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	opts.Logf = t.Logf
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, stub
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// attachedWaiters reads a flight's total attach count.
func attachedWaiters(s *Server, key campaign.Key) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.flights[key]; ok {
		return f.attached.Load()
	}
	return 0
}

// The acceptance-criteria test: 50 concurrent identical submissions, one
// execution, coalesce counter 49, byte-identical bodies for every waiter.
func TestCoalesce50Identical(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	s, _ := newTestServer(t, Options{Runner: stub})
	req := stubReq(1)
	key := campaign.ComputeKey(req)

	const waiters = 50
	bodies := make([][]byte, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Do(context.Background(), "tenant-a", req, nil)
			errs[i] = err
			if res != nil {
				bodies[i] = res.Body
			}
		}(i)
	}
	waitFor(t, "all 50 waiters attached", func() bool { return attachedWaiters(s, key) == waiters })
	close(stub.gate)
	wg.Wait()

	if got := stub.runs.Load(); got != 1 {
		t.Fatalf("campaign executed %d times, want exactly 1", got)
	}
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("waiter %d failed: %v", i, errs[i])
		}
	}
	for i := 1; i < waiters; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("waiter %d body differs from waiter 0", i)
		}
	}
	if len(bodies[0]) == 0 {
		t.Fatal("empty response body")
	}
	snap := s.opts.Metrics.Snapshot()
	if got := snap.Counters[obs.MetricServerCoalesced]; got != waiters-1 {
		t.Errorf("%s = %d, want %d", obs.MetricServerCoalesced, got, waiters-1)
	}
	if got := snap.Counters[obs.MetricServerRequests]; got != waiters {
		t.Errorf("%s = %d, want %d", obs.MetricServerRequests, got, waiters)
	}
}

// An execution error must propagate to every coalesced waiter.
func TestCoalescedErrorPropagation(t *testing.T) {
	wantErr := errors.New("boom")
	stub := &stubRunner{gate: make(chan struct{}), err: wantErr}
	s, _ := newTestServer(t, Options{Runner: stub})
	req := stubReq(2)
	key := campaign.ComputeKey(req)

	const waiters = 5
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Do(context.Background(), "t", req, nil)
		}(i)
	}
	waitFor(t, "waiters attached", func() bool { return attachedWaiters(s, key) == waiters })
	close(stub.gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, wantErr) {
			t.Errorf("waiter %d: err = %v, want %v", i, err, wantErr)
		}
	}
	if got := s.opts.Metrics.Snapshot().Counters[obs.MetricServerErrors]; got != waiters {
		t.Errorf("%s = %d, want %d", obs.MetricServerErrors, got, waiters)
	}
}

// A cancelled waiter detaches without killing the shared execution; the
// remaining waiter still gets the result.
func TestWaiterCancelDetachesWithoutKillingExecution(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	s, _ := newTestServer(t, Options{Runner: stub})
	req := stubReq(3)
	key := campaign.ComputeKey(req)

	ctx1, cancel1 := context.WithCancel(context.Background())
	var err1 error
	var wg1 sync.WaitGroup
	wg1.Add(1)
	go func() { defer wg1.Done(); _, err1 = s.Do(ctx1, "t", req, nil) }()

	var res2 *Result
	var err2 error
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() { defer wg2.Done(); res2, err2 = s.Do(context.Background(), "t", req, nil) }()

	waitFor(t, "both waiters attached", func() bool { return attachedWaiters(s, key) == 2 })
	cancel1()
	wg1.Wait()
	if !errors.Is(err1, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err1)
	}
	if got := stub.cancelled.Load(); got != 0 {
		t.Fatal("shared execution was cancelled by a non-last waiter detach")
	}
	close(stub.gate)
	wg2.Wait()
	if err2 != nil {
		t.Fatalf("surviving waiter failed: %v", err2)
	}
	if res2 == nil || len(res2.Body) == 0 {
		t.Fatal("surviving waiter got no body")
	}
}

// When the last waiter detaches, the shared execution is cancelled so
// abandoned clients free their pool workers.
func TestLastWaiterCancelKillsExecution(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	s, _ := newTestServer(t, Options{Runner: stub})
	req := stubReq(4)
	key := campaign.ComputeKey(req)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var err error
	wg.Add(1)
	go func() { defer wg.Done(); _, err = s.Do(ctx, "t", req, nil) }()
	waitFor(t, "waiter attached", func() bool { return attachedWaiters(s, key) == 1 })
	cancel()
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitFor(t, "execution cancelled", func() bool { return stub.cancelled.Load() == 1 })
	// The flight must be unmapped so a retry starts fresh.
	waitFor(t, "flight removed", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.flights[key]
		return !ok
	})
}

// Queue-full submissions are shed with ErrQueueFull and a Retry-After
// hint, never queued unboundedly.
func TestQueueFullSheds(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	defer close(stub.gate)
	s, _ := newTestServer(t, Options{Runner: stub, Queue: 2})
	if _, err := s.Start("t", stubReq(10), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start("t", stubReq(11), nil); err != nil {
		t.Fatal(err)
	}
	_, err := s.Start("t", stubReq(12), nil)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third distinct submission: err = %v, want ErrQueueFull", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.RetryAfter <= 0 {
		t.Fatalf("queue-full shed carries no Retry-After: %v", err)
	}
	// Coalescing is still free: attaching to an admitted flight works at
	// full queue.
	if _, err := s.Start("t", stubReq(10), nil); err != nil {
		t.Fatalf("coalesced attach at full queue: %v", err)
	}
	if got := s.opts.Metrics.Snapshot().Counters[obs.MetricServerShed]; got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricServerShed, got)
	}
}

// Per-tenant token buckets: one tenant exhausting its budget does not
// starve another.
func TestTenantRateLimiting(t *testing.T) {
	now := time.Unix(1000, 0)
	opts := Options{
		Runner:      &stubRunner{},
		TenantRate:  1,
		TenantBurst: 2,
		now:         func() time.Time { return now },
	}
	s, _ := newTestServer(t, opts)

	for i := int64(0); i < 2; i++ {
		if _, err := s.Start("greedy", stubReq(20+i), nil); err != nil {
			t.Fatalf("submission %d within burst: %v", i, err)
		}
	}
	_, err := s.Start("greedy", stubReq(22), nil)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-burst submission: err = %v, want ErrRateLimited", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.RetryAfter <= 0 || shed.RetryAfter > 2*time.Second {
		t.Fatalf("rate-limit shed Retry-After = %v, want (0, 2s]", err)
	}
	// A different tenant is unaffected.
	if _, err := s.Start("modest", stubReq(23), nil); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
	// Time refills the bucket.
	now = now.Add(1500 * time.Millisecond)
	if _, err := s.Start("greedy", stubReq(24), nil); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

// Drain: stops admission, finishes in-flight work, flushes the cache, and
// lands in StateDrained.
func TestDrainFinishesInflightAndRejectsNew(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	s, _ := newTestServer(t, Options{Runner: stub, DrainTimeout: 5 * time.Second})
	req := stubReq(30)
	key := campaign.ComputeKey(req)

	var res *Result
	var doErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); res, doErr = s.Do(context.Background(), "t", req, nil) }()
	waitFor(t, "flight in flight", func() bool { return attachedWaiters(s, key) == 1 })

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(context.Background()) }()
	waitFor(t, "state draining", func() bool { return s.State() == StateDraining })

	if _, err := s.Start("t", stubReq(31), nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission while draining: err = %v, want ErrDraining", err)
	}

	close(stub.gate) // let the in-flight campaign finish
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if doErr != nil {
		t.Fatalf("in-flight request failed during drain: %v", doErr)
	}
	if res == nil || len(res.Body) == 0 {
		t.Fatal("in-flight request got no result during drain")
	}
	if s.State() != StateDrained {
		t.Fatalf("state = %v, want drained", s.State())
	}
	if stub.cancelled.Load() != 0 {
		t.Error("drain cancelled a campaign that had time to finish")
	}
	if stub.flushed.Load() == 0 {
		t.Error("drain did not flush the cache")
	}
}

// Drain past its timeout cancels the stragglers instead of hanging.
func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})} // never released
	s, _ := newTestServer(t, Options{Runner: stub, DrainTimeout: 50 * time.Millisecond})
	req := stubReq(40)
	key := campaign.ComputeKey(req)

	var doErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, doErr = s.Do(context.Background(), "t", req, nil) }()
	waitFor(t, "flight in flight", func() bool { return attachedWaiters(s, key) == 1 })

	start := time.Now()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("drain took %v, should be bounded by the drain timeout", elapsed)
	}
	wg.Wait()
	if doErr == nil {
		t.Fatal("straggler waiter got no error from cancelled execution")
	}
	if stub.cancelled.Load() != 1 {
		t.Errorf("cancelled executions = %d, want 1", stub.cancelled.Load())
	}
	if s.State() != StateDrained {
		t.Fatalf("state = %v, want drained", s.State())
	}
}

// Job reports running progress, then a cached result after completion.
func TestJobProgress(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{}), lookup: map[string][]byte{}}
	s, _ := newTestServer(t, Options{Runner: stub})
	req := stubReq(50)
	key, err := s.Start("t", req, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "progress reported", func() bool {
		st, ok := s.Job(context.Background(), key)
		return ok && st.State == "running" && st.DoneConfigs == 1 && st.TotalConfigs == 2
	})
	close(stub.gate)
	waitFor(t, "flight finished", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.flights) == 0
	})
	// Without a cache entry the job vanishes...
	if _, ok := s.Job(context.Background(), key); ok {
		t.Fatal("finished, uncached job still reported")
	}
	// ...and with one it reports done/cached.
	stub.mu.Lock()
	stub.lookup[key.String()] = []byte("{}")
	stub.mu.Unlock()
	st, ok := s.Job(context.Background(), key)
	if !ok || st.State != "done" || !st.Cached {
		t.Fatalf("cached job status = %+v, ok=%v; want done/cached", st, ok)
	}
}

// Deadline budgets flow into the shared execution only when the last
// waiter leaves; an expired waiter alone does not kill it.
func TestDeadlineDetachesWaiter(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	defer close(stub.gate)
	s, _ := newTestServer(t, Options{Runner: stub})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := s.Do(ctx, "t", stubReq(60), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	waitFor(t, "execution cancelled after last waiter expired", func() bool {
		return stub.cancelled.Load() == 1
	})
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		StateServing:  "serving",
		StateDraining: "draining",
		StateDrained:  "drained",
		State(9):      "State(9)",
	} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
	if got := fmt.Sprint(StateServing); got != "serving" {
		t.Errorf("fmt.Sprint = %q", got)
	}
}

// A response assembled from point-level cache entries must be
// byte-identical to one computed cold: a server whose scheduler reuses
// half its grid from an earlier campaign serves the same Body an
// independent cacheless server produces for the same request.
func TestAssembledResponseBytesMatchColdRun(t *testing.T) {
	app, ok := apps.ByName("Kripke")
	if !ok {
		t.Fatal("app Kripke not registered")
	}
	sched, err := campaign.New(campaign.Options{Workers: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	// newTestServer swaps in a stubRunner; build directly to serve through
	// the real scheduler.
	s, err := New(Options{Runner: sched, Metrics: obs.NewRegistry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())

	gridA := workload.Grid{Procs: []int{2, 4}, Ns: []int{64, 128}, Seed: 7, Repeats: 2}
	if _, err := s.Do(context.Background(), "t", campaign.Request{App: app, Grid: gridA}, nil); err != nil {
		t.Fatalf("campaign A: %v", err)
	}
	gridB := workload.Grid{Procs: []int{2, 4}, Ns: []int{128, 256}, Seed: 7, Repeats: 2}
	warm, err := s.Do(context.Background(), "t", campaign.Request{App: app, Grid: gridB}, nil)
	if err != nil {
		t.Fatalf("campaign B: %v", err)
	}
	if warm.Outcome.CacheHit {
		t.Error("partially assembled campaign reported cache_hit")
	}
	if warm.Outcome.PointsReused != 2 || warm.Outcome.PointsMeasured != 2 {
		t.Errorf("reused %d / measured %d points, want 2 / 2",
			warm.Outcome.PointsReused, warm.Outcome.PointsMeasured)
	}

	coldSched, err := campaign.New(campaign.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coldSched.Close()
	s2, err := New(Options{Runner: coldSched, Metrics: obs.NewRegistry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(context.Background())
	cold, err := s2.Do(context.Background(), "t", campaign.Request{App: app, Grid: gridB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The bodies differ only in the points_reused/points_measured
	// provenance split (assembled: 2/2, cold: 0/4); everything the
	// client consumes — key, campaign, report — must be byte-identical.
	var warmBody, coldBody campaign.OutcomeBody
	if err := json.Unmarshal(warm.Body, &warmBody); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(cold.Body, &coldBody); err != nil {
		t.Fatal(err)
	}
	if coldBody.PointsReused != 0 || coldBody.PointsMeasured != 4 {
		t.Errorf("cold run reused %d / measured %d points, want 0 / 4",
			coldBody.PointsReused, coldBody.PointsMeasured)
	}
	warmBody.PointsReused, warmBody.PointsMeasured = 0, 0
	coldBody.PointsReused, coldBody.PointsMeasured = 0, 0
	wb, err := json.Marshal(&warmBody)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := json.Marshal(&coldBody)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, cb) {
		t.Error("assembled response differs from cold run beyond the provenance split")
	}
}

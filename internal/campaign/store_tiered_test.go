package campaign

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"extrareq/internal/obs"
	"extrareq/internal/workload"
)

// mapStore is an in-memory Store for tier tests: counts traffic, can fail
// writes, and can gate Store calls so tests control the write-behind
// worker's pace.
type mapStore struct {
	mu      sync.Mutex
	entries map[Key][]byte
	loads   int
	stores  int
	synced  int
	failPut error
	status  StoreStatus
	gate    chan struct{} // non-nil: Store blocks until the gate closes
}

func newMapStore() *mapStore { return &mapStore{entries: map[Key][]byte{}} }

func (s *mapStore) Load(_ context.Context, k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	data, ok := s.entries[k]
	return data, ok
}

func (s *mapStore) Store(ctx context.Context, k Key, data []byte) error {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stores++
	if s.failPut != nil {
		return s.failPut
	}
	s.entries[k] = data
	return nil
}

func (s *mapStore) Sync(context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.synced++
	return nil
}

func (s *mapStore) Status() StoreStatus { return s.status }

func (s *mapStore) has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[k]
	return ok
}

func (s *mapStore) counts() (loads, stores int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads, s.stores
}

func TestTieredReadThroughFillsLocal(t *testing.T) {
	local, remote := newMapStore(), newMapStore()
	ts := NewTieredStore(local, remote, TieredOptions{})
	defer ts.Close()
	key, data := testPointEntry(t)
	ctx := context.Background()

	if _, ok := ts.Load(ctx, key); ok {
		t.Fatal("Load hit on two empty tiers")
	}
	remote.mu.Lock()
	remote.entries[key] = data
	remote.mu.Unlock()
	got, ok := ts.Load(ctx, key)
	if !ok || string(got) != string(data) {
		t.Fatal("Load did not read through to the remote tier")
	}
	if !local.has(key) {
		t.Fatal("remote hit was not filled into the local tier")
	}
	// Next load is served locally: remote sees no more traffic.
	rl0, _ := remote.counts()
	if _, ok := ts.Load(ctx, key); !ok {
		t.Fatal("Load miss after local fill")
	}
	if rl, _ := remote.counts(); rl != rl0 {
		t.Error("local-tier hit still consulted the remote")
	}
}

func TestTieredWriteBehindReachesRemote(t *testing.T) {
	local, remote := newMapStore(), newMapStore()
	ts := NewTieredStore(local, remote, TieredOptions{})
	defer ts.Close()
	key, data := testPointEntry(t)
	ctx := context.Background()

	if err := ts.Store(ctx, key, data); err != nil {
		t.Fatal(err)
	}
	if !local.has(key) {
		t.Fatal("Store did not write the local tier synchronously")
	}
	if err := ts.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if !remote.has(key) {
		t.Fatal("Sync returned before the write-behind queue drained")
	}
	local.mu.Lock()
	synced := local.synced
	local.mu.Unlock()
	if synced == 0 {
		t.Error("Sync did not flush the local tier")
	}
}

// Sync observes everything enqueued before it, even with the worker
// mid-write when it is called.
func TestTieredSyncDrainsBacklog(t *testing.T) {
	local, remote := newMapStore(), newMapStore()
	gate := make(chan struct{})
	remote.gate = gate
	ts := NewTieredStore(local, remote, TieredOptions{QueueDepth: 16})
	defer ts.Close()
	ctx := context.Background()

	req := Request{App: testApp(t), Grid: testGrid()}
	var keys []Key
	for _, n := range []int{64, 128, 256} {
		k := ComputePointKey(req, 2, n)
		data, err := encodePoint(k, req.App.Name(), workload.Sample{P: 2, N: n, Values: map[string]float64{"t": 1}}, workload.ConfigOutcome{})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		if err := ts.Store(ctx, k, data); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- ts.Sync(ctx) }()
	select {
	case <-done:
		t.Fatal("Sync returned while the write-behind worker was gated")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !remote.has(k) {
			t.Fatalf("entry %s not on the remote after Sync", k)
		}
	}
}

// A full queue sheds remote copies instead of stalling measurement; the
// local tier still gets every write.
func TestTieredQueueFullDropsRemoteCopy(t *testing.T) {
	reg := obs.NewRegistry()
	local, remote := newMapStore(), newMapStore()
	gate := make(chan struct{})
	remote.gate = gate
	ts := NewTieredStore(local, remote, TieredOptions{QueueDepth: 1, Metrics: reg})
	defer ts.Close()
	ctx := context.Background()

	req := Request{App: testApp(t), Grid: testGrid()}
	// First write occupies the worker, second fills the queue, the rest
	// must drop. Wait until the worker holds the first write so the
	// occupancy is deterministic.
	var keys []Key
	for i, n := range []int{64, 128, 256, 512} {
		k := ComputePointKey(req, 2, n)
		data, err := encodePoint(k, req.App.Name(), workload.Sample{P: 2, N: n, Values: map[string]float64{"t": 1}}, workload.ConfigOutcome{})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		if err := ts.Store(ctx, k, data); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			deadline := time.Now().Add(5 * time.Second)
			for {
				if _, stores := remote.counts(); stores > 0 || len(ts.writes) == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("worker never picked up the first write")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	for _, k := range keys {
		if !local.has(k) {
			t.Fatalf("local tier missing %s; drops must shed only the remote copy", k)
		}
	}
	if got := reg.Snapshot().Counters[obs.MetricStoreRemoteDropped]; got != 2 {
		t.Errorf("%s = %d, want 2 (writes beyond worker+queue)", obs.MetricStoreRemoteDropped, got)
	}
	close(gate)
	if err := ts.Sync(ctx); err != nil {
		t.Fatal(err)
	}
}

// Local-tier write errors propagate (local durability is the Scheduler's
// latch signal); remote-tier errors never do.
func TestTieredStoreErrorPropagation(t *testing.T) {
	local, remote := newMapStore(), newMapStore()
	local.failPut = errors.New("injected: disk full")
	ts := NewTieredStore(local, remote, TieredOptions{})
	defer ts.Close()
	key, data := testPointEntry(t)
	ctx := context.Background()
	if err := ts.Store(ctx, key, data); err == nil {
		t.Fatal("local write failure not propagated")
	}

	local2, remote2 := newMapStore(), newMapStore()
	remote2.failPut = errors.New("injected: remote down")
	ts2 := NewTieredStore(local2, remote2, TieredOptions{})
	defer ts2.Close()
	if err := ts2.Store(ctx, key, data); err != nil {
		t.Fatalf("remote write failure propagated: %v", err)
	}
	if err := ts2.Sync(ctx); err != nil {
		t.Fatalf("Sync surfaced a remote write failure: %v", err)
	}
}

func TestTieredStatusMergesTiers(t *testing.T) {
	local, remote := newMapStore(), newMapStore()
	local.status = StoreStatus{Kind: "disk", WritesDegraded: true}
	remote.status = StoreStatus{Kind: "remote", BreakerOpen: true}
	ts := NewTieredStore(local, remote, TieredOptions{})
	defer ts.Close()
	st := ts.Status()
	if st.Kind != "tiered" || !st.WritesDegraded || !st.BreakerOpen || !st.Degraded() {
		t.Errorf("Status() = %+v, want tiered/writes-degraded/breaker-open", st)
	}
}

// Sync with an expired context returns promptly instead of waiting on a
// wedged remote.
func TestTieredSyncHonorsContext(t *testing.T) {
	local, remote := newMapStore(), newMapStore()
	gate := make(chan struct{})
	remote.gate = gate
	ts := NewTieredStore(local, remote, TieredOptions{})
	defer ts.Close()
	defer close(gate) // release the worker before Close waits on it
	key, data := testPointEntry(t)
	if err := ts.Store(context.Background(), key, data); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := ts.Sync(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Sync on a wedged remote: err = %v, want DeadlineExceeded", err)
	}
}

func TestTieredCloseIdempotentAndStopsWorker(t *testing.T) {
	local, remote := newMapStore(), newMapStore()
	ts := NewTieredStore(local, remote, TieredOptions{})
	ts.Close()
	ts.Close() // must not panic or deadlock
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); ts.Close() }()
	}
	wg.Wait()
	// Writes after Close still land locally; the remote copy is dropped.
	key, data := testPointEntry(t)
	if err := ts.Store(context.Background(), key, data); err != nil {
		t.Fatal(err)
	}
	if !local.has(key) {
		t.Error("Store after Close dropped the local write")
	}
	if err := ts.Sync(context.Background()); err != nil {
		t.Errorf("Sync after Close: %v", err)
	}
}

// A scheduler over a tiered store shards like one over a plain store:
// entries written through the tier are served back after a restart that
// kept only the remote tier.
func TestTieredSchedulerSurvivesLocalLoss(t *testing.T) {
	remote := newMapStore()
	local1, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts1 := NewTieredStore(local1, remote, TieredOptions{})
	s1, err := New(Options{Workers: 2, Store: ts1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{App: testApp(t), Grid: testGrid()}
	out, err := s1.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	ts1.Close()

	// "New machine": fresh local dir, same remote.
	local2, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts2 := NewTieredStore(local2, remote, TieredOptions{})
	defer ts2.Close()
	s2, err := New(Options{Workers: 2, Store: ts2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	warm, err := s2.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("campaign was re-measured despite the remote tier holding it")
	}
	if string(mustJSON(t, warm.Report)) != string(mustJSON(t, out.Report)) {
		t.Error("report served via the remote tier is not byte-identical")
	}
}

// StoreOptions is the one place that maps the cache settings to a store
// shape: directory alone → DiskStore via Options.Dir, remote alone →
// RemoteStore, both → TieredStore (also returned for the caller's flush and
// close), neither → memory-only. Building a store contacts nobody.
func TestStoreOptionsSelectsTier(t *testing.T) {
	dir, url := t.TempDir(), "http://127.0.0.1:1"
	o, tiered, err := StoreOptions("", "", nil, nil)
	if err != nil || o.Dir != "" || o.Store != nil || tiered != nil {
		t.Errorf("neither: %+v, %v, %v; want memory-only", o, tiered, err)
	}
	o, tiered, err = StoreOptions(dir, "", nil, nil)
	if err != nil || o.Dir != dir || o.Store != nil || tiered != nil {
		t.Errorf("dir only: %+v, %v, %v; want Dir %q", o, tiered, err, dir)
	}
	o, tiered, err = StoreOptions("", url, nil, nil)
	if _, ok := o.Store.(*RemoteStore); err != nil || !ok || o.Dir != "" || tiered != nil {
		t.Errorf("remote only: %+v, %v, %v; want a RemoteStore", o, tiered, err)
	}
	o, tiered, err = StoreOptions(dir, url, nil, nil)
	if err != nil || tiered == nil || o.Store != Store(tiered) || o.Dir != "" {
		t.Fatalf("both: %+v, %v, %v; want the returned TieredStore", o, tiered, err)
	}
	tiered.Close()
	if _, _, err := StoreOptions(dir, "cachehost:8080", nil, nil); err == nil {
		t.Error("URL without a scheme accepted")
	}
}

package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/obs"
	"extrareq/internal/simmpi"
	"extrareq/internal/workload"
)

// testGrid is small enough that a campaign runs in milliseconds but still
// exercises both grid axes and repeats.
func testGrid() workload.Grid {
	return workload.Grid{Procs: []int{2, 4}, Ns: []int{64, 128}, Seed: 7, Repeats: 2}
}

func testApp(t testing.TB) apps.App {
	t.Helper()
	app, ok := apps.ByName("Kripke")
	if !ok {
		t.Fatal("app Kripke not registered")
	}
	return app
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func TestComputeKeySensitivity(t *testing.T) {
	app := testApp(t)
	base := Request{App: app, Grid: testGrid(), Retries: 2, MinPoints: 5}
	k0 := ComputeKey(base)
	if k0 != ComputeKey(base) {
		t.Fatal("same request hashed to different keys")
	}

	perturb := map[string]Request{}
	r := base
	r.Grid.Seed = 8
	perturb["seed"] = r
	r = base
	r.Grid.Procs = []int{2, 8}
	perturb["procs"] = r
	r = base
	r.Grid.Ns = []int{64, 256}
	perturb["ns"] = r
	r = base
	r.Grid.Repeats = 3
	perturb["repeats"] = r
	r = base
	r.Retries = 3
	perturb["retries"] = r
	r = base
	r.MinPoints = 4
	perturb["minpoints"] = r
	r = base
	r.Faults = &simmpi.FaultPlan{Seed: 1, KillRank: -1, Drop: 0.5}
	perturb["faults"] = r
	for name, req := range perturb {
		if ComputeKey(req) == k0 {
			t.Errorf("changing %s did not change the key", name)
		}
	}

	// An inactive plan measures like no plan and must hash like no plan;
	// observability handles must not affect the key.
	r = base
	r.Faults = &simmpi.FaultPlan{Seed: 99, KillRank: -1} // nothing injected
	if ComputeKey(r) != k0 {
		t.Error("inactive fault plan changed the key")
	}
	r = base
	r.Metrics = obs.NewRegistry()
	if ComputeKey(r) != k0 {
		t.Error("metrics registry changed the key")
	}
	// Negative retries normalize to 0.
	a, b := base, base
	a.Retries, b.Retries = 0, -5
	if ComputeKey(a) != ComputeKey(b) {
		t.Error("negative retries did not normalize to 0")
	}
}

func TestSchedulerMemoryHitByteIdentical(t *testing.T) {
	s, err := New(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := obs.NewRegistry()
	req := Request{App: testApp(t), Grid: testGrid(), Metrics: reg}

	cold, err := s.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if cold.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	warm, err := s.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if !warm.CacheHit {
		t.Fatal("second run was not served from cache")
	}
	if warm.Key != cold.Key {
		t.Fatal("key changed between runs")
	}
	if !bytes.Equal(mustJSON(t, cold.Campaign), mustJSON(t, warm.Campaign)) {
		t.Error("cached campaign is not byte-identical to the fresh one")
	}
	if !bytes.Equal(mustJSON(t, cold.Report), mustJSON(t, warm.Report)) {
		t.Error("cached report is not byte-identical to the fresh one")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
	counters := reg.Snapshot().Counters
	if counters[MetricCacheHit] != 1 || counters[MetricCacheMiss] != 1 {
		t.Errorf("registry counters = %v, want cache_hit=1 cache_miss=1", counters)
	}
}

// The scheduler must produce exactly what a bare ResilientRunner produces:
// the shared pool and the cache layer are transparent.
func TestSchedulerMatchesBareRunner(t *testing.T) {
	plan, err := simmpi.ParseFaultSpec("drop=0.02,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{App: testApp(t), Grid: testGrid(), Faults: plan, Retries: 3}

	direct := &workload.ResilientRunner{
		App: req.App, Faults: req.Faults, Retries: req.Retries,
	}
	wantC, wantRep, err := direct.Run(context.Background(), req.Grid)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("scheduled run: %v", err)
	}
	if !bytes.Equal(mustJSON(t, wantC), mustJSON(t, out.Campaign)) {
		t.Error("scheduled campaign differs from bare runner campaign")
	}
	if !bytes.Equal(mustJSON(t, wantRep), mustJSON(t, out.Report)) {
		t.Error("scheduled report differs from bare runner report")
	}
}

func TestSchedulerDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	req := Request{App: testApp(t), Grid: testGrid()}

	s1, err := New(Options{Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s1.Run(context.Background(), req)
	s1.Close()
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}

	// A fresh scheduler has an empty memory cache; the hit must come from
	// disk and still be byte-identical.
	s2, err := New(Options{Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	warm, err := s2.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if !warm.CacheHit {
		t.Fatal("fresh scheduler did not hit the disk store")
	}
	if !bytes.Equal(mustJSON(t, cold.Campaign), mustJSON(t, warm.Campaign)) {
		t.Error("disk hit is not byte-identical to the fresh campaign")
	}
	if !reflect.DeepEqual(cold.Report, warm.Report) {
		t.Error("disk hit report differs from the fresh report")
	}
	if st := s2.Stats(); st.Bytes == 0 {
		t.Error("disk hit did not count cache_bytes")
	}
	// One campaign entry named after the key, plus one point entry per
	// (p, n) configuration.
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	grid := testGrid()
	want := 1 + len(grid.Procs)*len(grid.Ns)
	if len(entries) != want {
		t.Errorf("cache dir holds %d entries, want %d (1 campaign + %d points)",
			len(entries), want, want-1)
	}
	found := false
	for _, e := range entries {
		if filepath.Base(e) == cold.Key.String()+".json" {
			found = true
		}
	}
	if !found {
		t.Errorf("cache dir %v is missing the campaign entry %s.json", entries, cold.Key)
	}
}

func TestCorruptDiskEntryIsMiss(t *testing.T) {
	req := Request{App: testApp(t), Grid: testGrid()}
	key := ComputeKey(req)

	for name, garbage := range map[string][]byte{
		"truncated": []byte(`{"version":1,"key":"`),
		"empty":     nil,
		"wrongkey":  []byte(`{"version":1,"key":"deadbeef","app":"Kripke","campaign":{},"report":{}}`),
		"oldversion": []byte(`{"version":0,"key":"` + key.String() +
			`","app":"Kripke","campaign":{},"report":{}}`),
		"miscounted": []byte(`{"version":` + strconv.Itoa(KeyVersion) + `,"key":"` + key.String() +
			`","app":"Kripke","campaign":{},"report":{"configs":999}}`),
	} {
		t.Run(name, func(t *testing.T) {
			// A fresh dir per subtest: each one must exercise the
			// miss-and-remeasure path, not assembly from point entries a
			// previous subtest published.
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, key.String()+".json"), garbage, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := New(Options{Workers: 2, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			out, err := s.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("run over corrupt entry: %v", err)
			}
			if out.CacheHit {
				t.Fatal("corrupt entry was served as a hit")
			}
			// The fresh result must have overwritten the corruption.
			data, ok := s.store.Load(context.Background(), key)
			if !ok {
				t.Fatal("entry missing after remeasure")
			}
			if _, _, err := Decode(key, data); err != nil {
				t.Errorf("rewritten entry does not decode: %v", err)
			}
		})
	}
}

// TestRunBatchSharedPool runs concurrent campaigns through one scheduler,
// the way RunAll fans apps out over its shared pool.
func TestRunBatchSharedPool(t *testing.T) {
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	grid := testGrid()
	var reqs []Request
	for _, name := range []string{"Kripke", "LULESH", "MILC"} {
		app, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("app %s not registered", name)
		}
		reqs = append(reqs, Request{App: app, Grid: grid})
	}
	runBatch := func() ([]*Outcome, []error) {
		outs := make([]*Outcome, len(reqs))
		errs := make([]error, len(reqs))
		var wg sync.WaitGroup
		for i := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i], errs[i] = s.Run(context.Background(), reqs[i])
			}()
		}
		wg.Wait()
		return outs, errs
	}
	outs, errs := runBatch()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if outs[i].Campaign.App != reqs[i].App.Name() {
			t.Errorf("request %d: campaign for %s", i, outs[i].Campaign.App)
		}
	}
	// Same batch again: every campaign must now be a hit.
	outs2, errs2 := runBatch()
	for i := range outs2 {
		if errs2[i] != nil {
			t.Fatalf("warm request %d: %v", i, errs2[i])
		}
		if !outs2[i].CacheHit {
			t.Errorf("warm request %d missed", i)
		}
		if !bytes.Equal(mustJSON(t, outs[i].Campaign), mustJSON(t, outs2[i].Campaign)) {
			t.Errorf("warm request %d: campaign bytes differ", i)
		}
	}
}

func TestRunCancelledContext(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.Run(ctx, Request{App: testApp(t), Grid: testGrid()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The scheduler must remain usable after a cancelled campaign.
	out, err := s.Run(context.Background(), Request{App: testApp(t), Grid: testGrid()})
	if err != nil || out.CacheHit {
		t.Fatalf("post-cancel run: out=%+v err=%v", out, err)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	k := func(b byte) Key { var k Key; k[0] = b; return k }
	c.put(k(1), []byte("a"))
	c.put(k(2), []byte("b"))
	if _, ok := c.get(k(1)); !ok { // touch 1 → 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	c.put(k(3), []byte("c"))
	if _, ok := c.get(k(2)); ok {
		t.Error("least recently used entry survived eviction")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Error("recently used entry was evicted")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// Updating an existing key must not grow the cache.
	c.put(k(1), []byte("a2"))
	if got, _ := c.get(k(1)); string(got) != "a2" {
		t.Errorf("update not visible: %q", got)
	}
	if c.len() != 2 {
		t.Errorf("len after update = %d, want 2", c.len())
	}
}

func TestDiskStoreAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	k[0] = 0xab
	if err := s.Store(context.Background(), k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if data, ok := s.Load(context.Background(), k); !ok || string(data) != "payload" {
		t.Fatalf("load = %q, %v", data, ok)
	}
	// No temp files may linger after a successful store.
	tmps, err := filepath.Glob(filepath.Join(dir, ".*tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("leftover temp files: %v", tmps)
	}
	if _, ok := s.Load(context.Background(), Key{}); ok {
		t.Error("load of absent key succeeded")
	}
}

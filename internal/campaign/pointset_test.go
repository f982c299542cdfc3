package campaign

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"extrareq/internal/apps"
	"extrareq/internal/simmpi"
	"extrareq/internal/workload"
)

// A point-set request measures exactly its points, reuses the ones already
// cached, writes only point entries, and is not a campaign: no campaign
// lookup, count or entry, and a zero Outcome.Key.
func TestPointSetRequest(t *testing.T) {
	ctx := context.Background()
	app := newCountingApp(t)
	store := newMapStore()
	s, err := New(Options{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	grid := workload.Grid{Procs: []int{2, 4}, Ns: []int{64, 128}, Seed: 7}
	point := func(p, n int) Key { return ComputePointKey(Request{App: app, Grid: grid}, p, n) }

	first, err := s.Run(ctx, Request{App: app, Grid: grid, Points: [][2]int{{2, 64}}})
	if err != nil {
		t.Fatal(err)
	}
	if first.PointsReused != 0 || first.PointsMeasured != 1 {
		t.Errorf("first point set reused %d / measured %d, want 0 / 1", first.PointsReused, first.PointsMeasured)
	}

	pts := [][2]int{{4, 128}, {2, 64}}
	var progress [][2]int
	out, err := s.Run(ctx, Request{App: app, Grid: grid, Points: pts,
		Progress: func(done, total int) { progress = append(progress, [2]int{done, total}) }})
	if err != nil {
		t.Fatal(err)
	}
	if out.Key != (Key{}) {
		t.Errorf("point-set outcome carries key %s, want the zero key", out.Key)
	}
	if out.PointsReused != 1 || out.PointsMeasured != 1 || out.CacheHit {
		t.Errorf("second point set reused %d / measured %d (cache hit %v), want 1 / 1 and no hit",
			out.PointsReused, out.PointsMeasured, out.CacheHit)
	}
	for _, p := range grid.Procs {
		for _, n := range grid.Ns {
			want := 0
			if slices.Contains(pts, [2]int{p, n}) {
				want = 1
			}
			if got := app.count(p, n); got != want {
				t.Errorf("(%d, %d) measured %d times, want %d", p, n, got, want)
			}
		}
	}
	if !slices.Equal(progress, [][2]int{{1, 2}, {2, 2}}) {
		t.Errorf("progress = %v, want [[1 2] [2 2]] (the cached point first, then the measured one)", progress)
	}

	// Samples and outcomes come back in the order given, byte-identical to
	// the same points of a whole-grid campaign.
	cold, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	full, err := cold.Run(ctx, Request{App: testApp(t), Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range []int{3, 0} {
		if !bytes.Equal(mustJSON(t, out.Campaign.Samples[i]), mustJSON(t, full.Campaign.Samples[j])) {
			t.Errorf("sample %d differs from the whole grid's sample %d", i, j)
		}
		if !bytes.Equal(mustJSON(t, out.Report.Outcomes[i]), mustJSON(t, full.Report.Outcomes[j])) {
			t.Errorf("outcome %d differs from the whole grid's outcome %d", i, j)
		}
	}

	if st := s.Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("point-set requests counted %d campaign hits and %d misses, want none", st.Hits, st.Misses)
	}
	if _, stores := store.counts(); stores != 2 {
		t.Errorf("store took %d writes, want the 2 measured points", stores)
	}
	if !store.has(point(2, 64)) || !store.has(point(4, 128)) {
		t.Error("a measured point has no point entry")
	}
	if store.has(ComputeKey(Request{App: app, Grid: grid})) {
		t.Error("a point-set request wrote a campaign entry")
	}
}

// barrierApp wraps a proxy app whose runs return only once every run
// counted in finished has completed, so a campaign's configurations
// finish together.
type barrierApp struct {
	apps.App
	finished *sync.WaitGroup
}

func (a barrierApp) Run(cfg apps.Config) ([]simmpi.Result, error) {
	res, err := a.App.Run(cfg)
	a.finished.Done()
	a.finished.Wait()
	return res, err
}

// PointProgress calls arrive in order even when two points finish
// together: a callback that holds back measured=1 still delivers it before
// measured=2.
func TestPointProgressOrdered(t *testing.T) {
	var finished sync.WaitGroup
	finished.Add(2)
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	var got [][2]int
	req := Request{
		App:  barrierApp{App: testApp(t), finished: &finished},
		Grid: workload.Grid{Procs: []int{2}, Ns: []int{64, 128}, Seed: 7},
		PointProgress: func(reused, measured int) {
			if measured == 1 {
				time.Sleep(50 * time.Millisecond)
			}
			mu.Lock()
			got = append(got, [2]int{reused, measured})
			mu.Unlock()
		},
	}
	if _, err := s.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, [][2]int{{0, 1}, {0, 2}}) {
		t.Errorf("PointProgress arrived as %v, want [[0 1] [0 2]]", got)
	}
}

// A point entry must describe the point it is filed under. ValidateEntry
// cannot know which point a key addresses, so an entry carrying (4, 64)'s
// sample and outcome under (2, 32)'s key passes the upload gate; the load
// then treats it as a miss and re-measures (2, 32). An entry whose sample
// and outcome disagree is rejected at the gate.
func TestPointEntryFiledUnderWrongPoint(t *testing.T) {
	ctx := context.Background()
	app := testApp(t)
	grid := workload.Grid{Procs: []int{2, 4}, Ns: []int{32, 64}, Seed: 7}
	req := Request{App: app, Grid: grid}

	donor, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	want, err := donor.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := donor.LookupEntry(ctx, ComputePointKey(req, 4, 64))
	if !ok {
		t.Fatal("no point entry for (4, 64)")
	}
	sm, out, err := decodePoint(ComputePointKey(req, 4, 64), data)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wrong := ComputePointKey(req, 2, 32)
	misfiled, err := encodePoint(wrong, app.Name(), sm, out)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(ctx, wrong, misfiled); err != nil {
		t.Fatalf("well-formed entry rejected at the gate: %v", err)
	}
	got, err := s.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.PointsReused != 0 || got.PointsMeasured != 4 {
		t.Errorf("misfiled entry was reused (reused %d / measured %d)", got.PointsReused, got.PointsMeasured)
	}
	if !bytes.Equal(mustJSON(t, got.Campaign), mustJSON(t, want.Campaign)) {
		t.Errorf("campaign assembled over a misfiled entry differs from a clean run:\n%s\nvs\n%s",
			mustJSON(t, got.Campaign), mustJSON(t, want.Campaign))
	}

	other := out
	other.P, other.N = 2, 32
	torn, err := encodePoint(wrong, app.Name(), sm, other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateEntry(wrong, torn); err == nil {
		t.Error("ValidateEntry accepted a point entry whose sample and outcome disagree")
	}
	if err := s.PutEntry(ctx, wrong, torn); err == nil {
		t.Error("PutEntry accepted a point entry whose sample and outcome disagree")
	}
}

// A campaign a miss returns owns its grid axes: writing through them must
// not change the request the caller runs next.
func TestMissCampaignOwnsGrid(t *testing.T) {
	ctx := context.Background()
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := Request{App: testApp(t), Grid: workload.Grid{Procs: []int{2, 4}, Ns: []int{64, 128}, Seed: 7}}
	first, err := s.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, first.Campaign)
	first.Campaign.Grid.Procs[0], first.Campaign.Grid.Ns[0] = -1, -1
	again, err := s.Run(ctx, req)
	if err != nil {
		t.Fatalf("rerun after writing through the first campaign's grid: %v", err)
	}
	if got := mustJSON(t, again.Campaign); !bytes.Equal(got, want) {
		t.Errorf("rerun differs from the first run:\n%s\nvs\n%s", got, want)
	}
}

package adaptive

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"extrareq/internal/campaign"
	"extrareq/internal/obs"
	"extrareq/internal/simmpi"
)

// TestAdaptivePins pins the SHA-256 of the encoded adaptive result on the
// 4×4 Kripke test grid with one retry, at 1 and 4 workers. Under kill=8@1
// only p = 16 has a rank 8, so every p = 16 configuration is quarantined,
// including the one-point batch round, which is lost whole.
func TestAdaptivePins(t *testing.T) {
	kill, err := simmpi.ParseFaultSpec("kill=8@1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		faults *simmpi.FaultPlan
		want   string
	}{
		{"no-faults", nil, "dc32e6f50fb9aae5517d1638dbcded8aac45a9cafdd1ee2a6aff4705ba5e2b7f"},
		{"kill=8@1", kill, "5309822cb8fd1ff0a4b23daba8ad6f805cac87c12ad319f2d32a52230de19733"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			req := campaign.Request{App: testApp(t), Grid: testGrid(), Faults: tc.faults, Retries: 1}
			res, err := Run(context.Background(), newScheduler(t, campaign.Options{Workers: workers}), req, Options{})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", tc.name, workers, err)
			}
			sum := sha256.Sum256(encodeResult(t, res))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("%s, %d workers: sha256 %s, want %s", tc.name, workers, got, tc.want)
			}
		}
	}
}

// countingRunner counts the Run calls the engine makes.
type countingRunner struct {
	*campaign.Scheduler
	runs atomic.Int64
}

func (r *countingRunner) Run(ctx context.Context, req campaign.Request) (*campaign.Outcome, error) {
	r.runs.Add(1)
	return r.Scheduler.Run(ctx, req)
}

// countingStore counts the writes that reach a disk store.
type countingStore struct {
	*campaign.DiskStore
	writes atomic.Int64
}

func (s *countingStore) Store(ctx context.Context, k campaign.Key, data []byte) error {
	s.writes.Add(1)
	return s.DiskStore.Store(ctx, k, data)
}

// Each round is one point-set request: on the 4×4 grid the seed lines and
// the one batch take two Run calls, the store takes one write per measured
// point plus the adaptive entry, and no round counts as a campaign lookup:
// the one miss is the adaptive entry's own.
func TestAdaptiveOneRunPerRound(t *testing.T) {
	disk, err := campaign.OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{DiskStore: disk}
	r := &countingRunner{Scheduler: newScheduler(t, campaign.Options{Workers: 4, Store: store})}
	req := campaign.Request{App: testApp(t), Grid: testGrid()}
	res, err := Run(context.Background(), r, req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.runs.Load(); got != 2 || got != int64(res.Rounds) {
		t.Errorf("engine made %d Run calls over %d rounds, want 2, one per round", got, res.Rounds)
	}
	if got, want := store.writes.Load(), int64(res.PointsMeasured+1); got != want {
		t.Errorf("store took %d writes, want %d: %d measured points plus the adaptive entry",
			got, want, res.PointsMeasured)
	}
	if st := r.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("counted %d campaign hits and %d misses, want 0 and 1, the adaptive entry's lookup", st.Hits, st.Misses)
	}
}

// The adaptive entry's traffic is counted like a fixed-grid campaign's: a
// cold run misses once and writes the entry, and a warm run on a fresh
// scheduler over the same directory hits once, loads only the entry, and
// returns the cold run's bytes with the body a hit serves. The grid
// repeats an axis value, so the full grid that progress reports against
// (distinct values only) is smaller than the product of the axis lengths.
func TestAdaptiveEntryCounted(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	grid := testGrid()
	grid.Ns = append(grid.Ns, grid.Ns[1])
	var done, total int
	run := func() (*Result, campaign.Stats, map[string]int64) {
		t.Helper()
		reg := obs.NewRegistry()
		s := newScheduler(t, campaign.Options{Workers: 4, Dir: dir})
		req := campaign.Request{App: testApp(t), Grid: grid, Metrics: reg,
			Progress: func(d, tot int) { done, total = d, tot }}
		res, err := Run(ctx, s, req, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res, s.Stats(), reg.Snapshot().Counters
	}

	cold, st, c := run()
	entry := encodeResult(t, cold)
	if st.Hits != 0 || st.Misses != 1 || c[campaign.MetricCacheHit] != 0 || c[campaign.MetricCacheMiss] != 1 {
		t.Errorf("cold run counted %d/%d hits and %d/%d misses (stats/registry), want 0 and 1",
			st.Hits, c[campaign.MetricCacheHit], st.Misses, c[campaign.MetricCacheMiss])
	}
	if stored, err := os.ReadFile(filepath.Join(dir, cold.Key.String()+".json")); err != nil || !bytes.Equal(stored, entry) {
		t.Errorf("adaptive entry not stored as the result's bytes (err %v)", err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var written int64
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			t.Fatal(err)
		}
		written += info.Size()
	}
	if st.Bytes != written || c[campaign.MetricCacheBytes] != written {
		t.Errorf("cold run counted %d/%d bytes (stats/registry), want %d: its points plus its entry",
			st.Bytes, c[campaign.MetricCacheBytes], written)
	}

	warm, st, c := run()
	if st.Hits != 1 || st.Misses != 0 || c[campaign.MetricCacheHit] != 1 || c[campaign.MetricCacheMiss] != 0 {
		t.Errorf("warm run counted %d/%d hits and %d/%d misses (stats/registry), want 1 and 0",
			st.Hits, c[campaign.MetricCacheHit], st.Misses, c[campaign.MetricCacheMiss])
	}
	if want := int64(len(entry)); st.Bytes != want || c[campaign.MetricCacheBytes] != want {
		t.Errorf("warm run counted %d/%d bytes (stats/registry), want the entry's %d",
			st.Bytes, c[campaign.MetricCacheBytes], want)
	}
	if got := c[obs.MetricAdaptiveCacheHit]; got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricAdaptiveCacheHit, got)
	}
	if !bytes.Equal(encodeResult(t, warm), entry) {
		t.Error("warm result differs from the cold one")
	}
	if !warm.CacheHit || warm.Rounds != 0 || warm.Converged || warm.PointsMeasured != 0 ||
		warm.PointsReused != cold.Report.Configs || warm.PointsSaved != cold.PointsSaved {
		t.Errorf("warm result: cache hit %v, %d rounds, converged %v, %d measured, %d reused, %d saved; "+
			"want a hit in 0 rounds, not converged, 0 measured, %d reused, %d saved",
			warm.CacheHit, warm.Rounds, warm.Converged, warm.PointsMeasured, warm.PointsReused, warm.PointsSaved,
			cold.Report.Configs, cold.PointsSaved)
	}
	if body, err := campaign.EncodeOutcome(&warm.Outcome); err != nil || !bytes.Equal(warm.Body, body) {
		t.Errorf("warm result's body is not its encoded outcome (err %v)", err)
	}
	if done != cold.Report.Configs || total != 16 || warm.FullGridPoints != 16 {
		t.Errorf("warm run reported progress %d of %d over a full grid of %d, want %d of 16",
			done, total, warm.FullGridPoints, cold.Report.Configs)
	}
}

// An adaptive result owns its campaign's grid axes: writing through them
// must not change the request the caller runs next.
func TestAdaptiveResultOwnsGrid(t *testing.T) {
	ctx := context.Background()
	req := campaign.Request{App: testApp(t), Grid: testGrid()}
	first, err := Run(ctx, newScheduler(t, campaign.Options{Workers: 4}), req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeResult(t, first)
	first.Campaign.Grid.Procs[0], first.Campaign.Grid.Ns[0] = -1, -1
	again, err := Run(ctx, newScheduler(t, campaign.Options{Workers: 4}), req, Options{})
	if err != nil {
		t.Fatalf("rerun after writing through the first result's grid: %v", err)
	}
	if !bytes.Equal(encodeResult(t, again), want) {
		t.Error("rerun differs from the first run")
	}
}

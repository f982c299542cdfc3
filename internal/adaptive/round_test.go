package adaptive

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync/atomic"
	"testing"

	"extrareq/internal/campaign"
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
// point plus the adaptive entry, and no round counts as a campaign lookup.
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
	if st := r.Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("rounds counted %d campaign hits and %d misses, want none", st.Hits, st.Misses)
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

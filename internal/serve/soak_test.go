package serve

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/obs"
	"extrareq/internal/workload"
)

// The soak satellite: hammer a real scheduler through the server with
// mixed identical + distinct requests, random client cancellations, and a
// mid-soak drain. Must be clean under -race, and every successful waiter
// of one key must observe byte-identical bytes.
func TestSoakMixedTrafficWithDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	app, ok := apps.ByName("Kripke")
	if !ok {
		t.Fatal("app Kripke not registered")
	}
	sched, err := campaign.New(campaign.Options{Workers: 4, Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	s, err := New(Options{
		Runner:       sched,
		Queue:        32,
		DrainTimeout: 20 * time.Second,
		Metrics:      obs.NewRegistry(),
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A small set of distinct specs; many clients share each one so
	// coalescing and cache hits both happen constantly.
	const distinct = 6
	specs := make([]campaign.Request, distinct)
	for i := range specs {
		specs[i] = campaign.Request{
			App:  app,
			Grid: workload.Grid{Procs: []int{2, 4}, Ns: []int{64, 128}, Seed: int64(100 + i), Repeats: 2},
		}
	}

	const clients = 48
	const perClient = 4
	// Bodies are grouped by key AND cache_hit: within one flight every
	// coalesced waiter gets identical bytes, but a later submission of the
	// same key is answered from the cache and legitimately differs in its
	// cache_hit field.
	type group struct {
		key    string
		cached bool
	}
	var (
		mu        sync.Mutex
		bodies    = map[group][][]byte{}
		successes int
		cancels   int
		sheds     int
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				req := specs[rng.Intn(distinct)]
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(4) == 0 { // every 4th request abandons quickly
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(5)+1)*time.Millisecond)
				}
				res, err := s.Do(ctx, "soak", req, nil)
				cancel()
				mu.Lock()
				switch {
				case err == nil:
					successes++
					g := group{key: res.Outcome.Key.String(), cached: res.Outcome.CacheHit}
					bodies[g] = append(bodies[g], res.Body)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					cancels++
				case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
					sheds++
				default:
					t.Errorf("client %d: unexpected error: %v", c, err)
				}
				mu.Unlock()
			}
		}(c)
	}

	// Drain mid-soak: some clients are still submitting, some waiting.
	time.Sleep(150 * time.Millisecond)
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("Drain: %v", err)
	}
	wg.Wait()

	if s.State() != StateDrained {
		t.Fatalf("state after soak = %v, want drained", s.State())
	}
	if successes == 0 {
		t.Fatal("soak produced no successful submissions")
	}
	for g, bs := range bodies {
		for i := 1; i < len(bs); i++ {
			if !bytes.Equal(bs[0], bs[i]) {
				t.Fatalf("key %s (cached=%v): body %d differs from body 0 across coalesced waiters",
					g.key, g.cached, i)
			}
		}
	}
	snap := s.opts.Metrics.Snapshot()
	t.Logf("soak: %d ok, %d cancelled, %d shed; coalesce_hits=%d cache_hits=%d",
		successes, cancels, sheds,
		snap.Counters[obs.MetricServerCoalesced], snap.Counters[campaign.MetricCacheHit])
}

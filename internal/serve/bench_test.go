package serve

import (
	"context"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/workload"
)

// BenchmarkServeThroughput measures the steady-state request path of the
// server core — admission, single-flight lookup, cache hit in the
// scheduler, response encoding — which is what a saturated reqserve spends
// its time on once the campaign itself is cached.
func BenchmarkServeThroughput(b *testing.B) {
	app, ok := apps.ByName("Kripke")
	if !ok {
		b.Fatal("app Kripke not registered")
	}
	sched, err := campaign.New(campaign.Options{Workers: 2, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	defer sched.Close()
	s, err := New(Options{Runner: sched, Queue: 1024, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	req := campaign.Request{
		App:  app,
		Grid: workload.Grid{Procs: []int{2, 4}, Ns: []int{64, 128}, Seed: 42},
	}
	// Warm the cache so iterations measure the serving path, not the
	// simulation.
	if _, err := s.Do(context.Background(), "bench", req, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Do(context.Background(), "bench", req, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

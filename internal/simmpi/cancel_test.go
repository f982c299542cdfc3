package simmpi

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestTimeoutReturnsPartialResultsWithoutLeakedWriters is the regression
// test for the timeout data race: a deliberately deadlocked body used to
// leak rank goroutines that kept writing results[rank] after RunOpt
// returned. Under the reworked runtime the timeout cancels the world,
// drains every rank, and returns partial per-rank results. Run with -race.
func TestTimeoutReturnsPartialResultsWithoutLeakedWriters(t *testing.T) {
	const size = 4
	results, err := RunOpt(size, &Options{Timeout: 50 * time.Millisecond}, func(p *Proc) error {
		if p.Rank() == 0 {
			return nil // finishes before the deadlock is detected
		}
		p.Recv(p.Rank()) // self-channel, never sent: guaranteed deadlock
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if len(results) != size {
		t.Fatalf("got %d results, want partial results for all %d ranks", len(results), size)
	}
	if results[0].Err != nil {
		t.Errorf("rank 0 finished cleanly but has Err = %v", results[0].Err)
	}
	for r := 1; r < size; r++ {
		if !errors.Is(results[r].Err, ErrCancelled) {
			t.Errorf("rank %d Err = %v, want ErrCancelled", r, results[r].Err)
		}
		if results[r].Counters == nil || results[r].Profile == nil {
			t.Errorf("rank %d partial result missing counters/profile", r)
		}
	}
	// The old runtime raced here: leaked goroutines wrote results[rank]
	// after return. Mutating every slot now must be safe (-race verifies).
	for i := range results {
		results[i].Err = nil
	}
}

// TestTimeoutDrainsBlockedSenders exercises the cancel gate on the send
// side: ranks blocked because the per-pair buffer is full must unwind too.
func TestTimeoutDrainsBlockedSenders(t *testing.T) {
	results, err := RunOpt(2, &Options{ChannelDepth: 1, Timeout: 50 * time.Millisecond}, func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < 100; i++ {
				p.Send(1, []float64{1}) // blocks at the second message
			}
			return nil
		}
		p.Recv(p.Rank()) // rank 1 never receives from 0; parks drainably
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !errors.Is(results[0].Err, ErrCancelled) {
		t.Errorf("blocked sender Err = %v, want ErrCancelled", results[0].Err)
	}
}

// TestRunContextCancel verifies that cancelling the caller's context tears
// the run down and reports the context cause.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	results, err := RunContext(ctx, 3, nil, func(p *Proc) error {
		p.Recv(p.Rank()) // blocks forever without cancellation
		return nil
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	for _, r := range results {
		if !errors.Is(r.Err, ErrCancelled) {
			t.Errorf("rank %d Err = %v, want ErrCancelled", r.Rank, r.Err)
		}
	}
}

// TestRunContextExpiredContext documents the "explicit zero timeout": an
// already-expired context aborts the run on the spot, something
// Options.Timeout cannot express because 0 is its use-the-default sentinel.
func TestRunContextExpiredContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	_, err := RunContext(ctx, 2, nil, func(p *Proc) error {
		p.Recv(p.Rank())
		return nil
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// TestCancelledPolling verifies cooperative cancellation: a compute-only
// body that polls Cancelled returns voluntarily and keeps a nil per-rank
// error, while the run-level error reports the timeout.
func TestCancelledPolling(t *testing.T) {
	var polled atomic.Bool
	results, err := RunOpt(2, &Options{Timeout: 30 * time.Millisecond}, func(p *Proc) error {
		for !p.Cancelled() {
			time.Sleep(time.Millisecond)
		}
		polled.Store(true)
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !polled.Load() {
		t.Fatal("body never observed Cancelled()")
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("cooperative rank %d Err = %v, want nil", r.Rank, r.Err)
		}
	}
}

// TestDrainTimeoutAbandons verifies the last-resort path: a body that
// ignores cancellation entirely exhausts the drain grace period, and the
// runtime refuses to hand out results it cannot prove race-free.
func TestDrainTimeoutAbandons(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // let the leaked goroutines exit at test end
	results, err := RunOpt(1, &Options{Timeout: 20 * time.Millisecond, DrainTimeout: 20 * time.Millisecond}, func(p *Proc) error {
		<-release // ignores cancellation: not a runtime primitive
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if results != nil {
		t.Fatalf("got results %v after drain expiry, want nil", results)
	}
}

// TestCancelledCollective verifies that ranks parked inside a collective
// unwind on cancellation (a fault-free world's Allreduce parks at a
// rendezvous that selects on the cancel gate, as Send/Recv do).
func TestCancelledCollective(t *testing.T) {
	results, err := RunOpt(4, &Options{Timeout: 50 * time.Millisecond}, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Recv(0) // never joins the allreduce: the collective hangs
			return nil
		}
		p.Allreduce([]float64{1}, Sum)
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	cancelled := 0
	for _, r := range results {
		if errors.Is(r.Err, ErrCancelled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no rank reported ErrCancelled from inside the collective")
	}
}

// TestCancelledNonblockingWait verifies that a Wait blocked on an Irecv
// unwinds on cancellation.
func TestCancelledNonblockingWait(t *testing.T) {
	results, err := RunOpt(2, &Options{Timeout: 50 * time.Millisecond}, func(p *Proc) error {
		if p.Rank() == 0 {
			req := p.Irecv(1) // never sent
			req.Wait()
		} else {
			p.Recv(p.Rank())
		}
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !errors.Is(results[0].Err, ErrCancelled) {
		t.Errorf("rank 0 Err = %v, want ErrCancelled", results[0].Err)
	}
}

// TestResolveTimeouts pins the sentinel semantics of Options.Timeout and
// Options.DrainTimeout.
func TestResolveTimeouts(t *testing.T) {
	cases := []struct {
		name     string
		opt      *Options
		run, drn time.Duration
	}{
		{"nil options", nil, DefaultTimeout, DefaultDrainTimeout},
		{"zero values mean defaults", &Options{}, DefaultTimeout, DefaultDrainTimeout},
		{"explicit", &Options{Timeout: time.Second, DrainTimeout: 2 * time.Second}, time.Second, 2 * time.Second},
		{"NoTimeout disables", &Options{Timeout: NoTimeout, DrainTimeout: NoTimeout}, NoTimeout, NoTimeout},
		{"any negative disables", &Options{Timeout: -5 * time.Second}, -5 * time.Second, DefaultDrainTimeout},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run, drn := resolveTimeouts(c.opt)
			if run != c.run || drn != c.drn {
				t.Errorf("resolveTimeouts = (%v, %v), want (%v, %v)", run, drn, c.run, c.drn)
			}
		})
	}
}

// TestNormalRunUnaffected makes sure the cancellation machinery stays out
// of the way of a clean run: all ranks succeed, no cancel flag observed.
func TestNormalRunUnaffected(t *testing.T) {
	results, err := Run(4, func(p *Proc) error {
		if p.Cancelled() {
			t.Error("Cancelled() true during a healthy run")
		}
		p.Allreduce([]float64{float64(p.Rank())}, Sum)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("rank %d Err = %v", r.Rank, r.Err)
		}
	}
}

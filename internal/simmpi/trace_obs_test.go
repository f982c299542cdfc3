package simmpi

import (
	"errors"
	"testing"
	"time"

	"extrareq/internal/counters"
	"extrareq/internal/obs"
)

// traceTotals sums one run's per-rank trace totals.
func traceTotals(t *testing.T, rt *obs.RunTrace) (sentBytes, recvBytes, sentMsgs, recvMsgs []int64) {
	t.Helper()
	for r := 0; r < rt.Size(); r++ {
		ring := rt.Ring(r)
		sentBytes = append(sentBytes, ring.SentBytes())
		recvBytes = append(recvBytes, ring.RecvBytes())
		sentMsgs = append(sentMsgs, ring.SentMsgs())
		recvMsgs = append(recvMsgs, ring.RecvMsgs())
	}
	return
}

// TestTraceMatchesCountersHealthy: on a healthy run mixing blocking p2p,
// nonblocking p2p, and collectives, every rank's traced send/recv volume
// must equal its counter-derived volume exactly — the acceptance invariant
// that makes traces a diagnosis tool for Table II metrics.
func TestTraceMatchesCountersHealthy(t *testing.T) {
	tr := obs.NewTracer(0)
	const size = 4
	results, err := RunOpt(size, &Options{Tracer: tr, TraceTag: "healthy"}, func(p *Proc) error {
		// Blocking ring exchange.
		right, left := (p.Rank()+1)%p.Size(), (p.Rank()+p.Size()-1)%p.Size()
		p.Send(right, []float64{1, 2, 3})
		p.Recv(left)
		// Nonblocking halo pair.
		sr := p.Isend(left, make([]float64, 7))
		rr := p.Irecv(right)
		rr.Wait()
		sr.Wait()
		// Collectives: Barrier is built from p2p traffic; this fault-free
		// Allreduce meets at the rendezvous and charges the same per-message
		// sends and receives (DESIGN §6l).
		p.Allreduce([]float64{float64(p.Rank())}, Sum)
		p.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := tr.Runs()
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	rt := runs[0]
	if rt.Tag != "healthy" || rt.Size() != size {
		t.Errorf("run tag/size = %q/%d", rt.Tag, rt.Size())
	}
	sentB, recvB, sentM, recvM := traceTotals(t, rt)
	for r, res := range results {
		c := res.Counters
		if sentB[r] != c.Value(counters.BytesSent) {
			t.Errorf("rank %d: traced sent bytes %d != counter %d", r, sentB[r], c.Value(counters.BytesSent))
		}
		if recvB[r] != c.Value(counters.BytesRecv) {
			t.Errorf("rank %d: traced recv bytes %d != counter %d", r, recvB[r], c.Value(counters.BytesRecv))
		}
		if sentM[r] != c.Value(counters.MsgsSent) {
			t.Errorf("rank %d: traced sent msgs %d != counter %d", r, sentM[r], c.Value(counters.MsgsSent))
		}
		if recvM[r] != c.Value(counters.MsgsRecv) {
			t.Errorf("rank %d: traced recv msgs %d != counter %d", r, recvM[r], c.Value(counters.MsgsRecv))
		}
	}
	// Collectives must appear as events.
	var sawAllreduce, sawBarrier bool
	for _, e := range rt.Ring(0).Events() {
		if e.Kind == obs.KindCollective {
			switch e.Detail {
			case "MPI_Allreduce":
				sawAllreduce = true
			case "MPI_Barrier":
				sawBarrier = true
			}
		}
	}
	if !sawAllreduce || !sawBarrier {
		t.Errorf("missing collective events (allreduce=%v barrier=%v)", sawAllreduce, sawBarrier)
	}
}

// TestTraceRecordsFaultsAndStillReconciles: drop/dup faults leave their
// mark in the event stream, and the traced totals still match the
// counters, because both record the *logical* send exactly once.
// (Counter-perturbation faults are excluded on purpose: they scale counter
// readings after the run, deliberately breaking the equality.)
func TestTraceRecordsFaultsAndStillReconciles(t *testing.T) {
	tr := obs.NewTracer(0)
	plan := NewFaultPlan(11)
	plan.Drop = 0.3
	plan.Dup = 0.3
	// Send-only bodies: dropped messages would make receive counts
	// schedule-dependent, but the send side is exact. ChannelDepth leaves
	// room for every duplicate, so no Send ever blocks.
	results, err := RunOpt(2, &Options{Tracer: tr, Faults: plan, ChannelDepth: 128, Timeout: 5 * time.Second}, func(p *Proc) error {
		other := 1 - p.Rank()
		for i := 0; i < 40; i++ {
			p.Send(other, []float64{float64(i)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := tr.Runs()[0]
	var drops, dups int
	for r := 0; r < rt.Size(); r++ {
		for _, e := range rt.Ring(r).Events() {
			if e.Kind == obs.KindFault {
				switch e.Detail {
				case "drop":
					drops++
				case "dup":
					dups++
				}
			}
		}
	}
	if drops == 0 || dups == 0 {
		t.Errorf("fault events not traced: drops=%d dups=%d", drops, dups)
	}
	for r, res := range results {
		ring := rt.Ring(r)
		if ring.SentBytes() != res.Counters.Value(counters.BytesSent) {
			t.Errorf("rank %d: traced sent %d != counter %d", r, ring.SentBytes(), res.Counters.Value(counters.BytesSent))
		}
	}
}

// TestTraceKillEmitsFaultAndCancelEvents: a killed rank leaves a
// fault:kill event in its own ring and its peers record cancel events —
// the trace names the root cause.
func TestTraceKillEmitsFaultAndCancelEvents(t *testing.T) {
	tr := obs.NewTracer(0)
	plan := NewFaultPlan(3)
	plan.KillRank = 1
	plan.KillEvent = 2
	_, err := RunOpt(3, &Options{Tracer: tr, Faults: plan, Timeout: 5 * time.Second}, func(p *Proc) error {
		right := (p.Rank() + 1) % p.Size()
		left := (p.Rank() + p.Size() - 1) % p.Size()
		for i := 0; i < 100; i++ {
			p.Send(right, []float64{1})
			p.Recv(left)
		}
		return nil
	})
	if err == nil {
		t.Fatal("killed run reported success")
	}
	var rankErr *RankError
	if !errors.As(err, &rankErr) || rankErr.Rank != 1 || !rankErr.Injected {
		t.Fatalf("root cause not the injected kill: %v", err)
	}
	rt := tr.Runs()[0]
	var sawKill bool
	for _, e := range rt.Ring(1).Events() {
		if e.Kind == obs.KindFault && e.Detail == "kill" {
			sawKill = true
		}
	}
	if !sawKill {
		t.Error("victim ring has no fault:kill event")
	}
	var cancels int
	for _, r := range []int{0, 2} {
		for _, e := range rt.Ring(r).Events() {
			if e.Kind == obs.KindCancel {
				cancels++
			}
		}
	}
	if cancels == 0 {
		t.Error("no peer recorded a cancel event")
	}
}

// TestSendRecvEagerLimitDeadlock is the §d regression test: a cyclic
// SendRecv ring repeated past ChannelDepth without draining fills every
// pair buffer, all ranks block in Send — a classic eager-limit deadlock —
// and the watchdog must cancel the run with ErrTimeout, useful partial
// results, and cancel events in the trace identifying the stuck ranks.
func TestSendRecvEagerLimitDeadlock(t *testing.T) {
	tr := obs.NewTracer(0)
	const size, depth = 3, 4
	results, err := RunOpt(size, &Options{
		ChannelDepth: depth,
		Timeout:      500 * time.Millisecond,
		Tracer:       tr,
		TraceTag:     "deadlock",
	}, func(p *Proc) error {
		right, left := (p.Rank()+1)%p.Size(), (p.Rank()+p.Size()-1)%p.Size()
		// Everyone sends depth+2 messages before the first Recv: pair
		// buffers fill at depth, every rank blocks in Send, nobody reaches
		// Recv. Same shape as an eager-limited MPI ring exchange.
		for i := 0; i <= depth+1; i++ {
			p.Send(right, []float64{float64(i)})
		}
		p.Recv(left)
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if len(results) != size {
		t.Fatalf("partial results = %d ranks, want %d", len(results), size)
	}
	for _, res := range results {
		if !errors.Is(res.Err, ErrCancelled) {
			t.Errorf("rank %d err = %v, want ErrCancelled", res.Rank, res.Err)
		}
		// Each rank got depth sends through before blocking.
		if got := res.Counters.Value(counters.MsgsSent); got != depth {
			t.Errorf("rank %d sent %d messages before deadlock, want %d", res.Rank, got, depth)
		}
	}
	rt := tr.Runs()[0]
	if rt.Abandoned() {
		t.Fatal("drained run must not be abandoned")
	}
	for r := 0; r < size; r++ {
		ring := rt.Ring(r)
		var sawCancel bool
		for _, e := range ring.Events() {
			if e.Kind == obs.KindCancel {
				sawCancel = true
			}
		}
		if !sawCancel {
			t.Errorf("rank %d recorded no cancel event", r)
		}
		// Trace totals agree with the counters even on the deadlock path.
		if ring.SentMsgs() != depth {
			t.Errorf("rank %d traced %d sends, want %d", r, ring.SentMsgs(), depth)
		}
	}
}

// TestTracingDisabledHasNilRings: without a tracer the runtime takes the
// nil-ring fast path and registers nothing.
func TestTracingDisabledHasNilRings(t *testing.T) {
	_, err := Run(2, func(p *Proc) error {
		p.Send(1-p.Rank(), []float64{1})
		p.Recv(1 - p.Rank())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

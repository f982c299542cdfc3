package simmpi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"extrareq/internal/obs"
)

// Tests for the recycled halo path: Cart.Shift and Cart.Exchange allocate
// nothing per message, and a world with an inert fault plan, whose every
// message goes through the fault layer, is indistinguishable from a
// healthy one on Exchange and on the send / receive-into pipeline.

// TestCartShiftAllocFree: Shift agrees with Rank on the moved coordinates
// for every rank, dimension and displacement of a 3-D topology with mixed
// periodicity, and allocates nothing.
func TestCartShiftAllocFree(t *testing.T) {
	dims, periodic := []int{3, 4, 2}, []bool{true, false, true}
	var c *Cart
	for rank := 0; rank < 24; rank++ {
		var err error
		if c, err = (&Proc{rank: rank, size: 24}).NewCart(dims, periodic); err != nil {
			t.Fatal(err)
		}
		for dim := range dims {
			for disp := -5; disp <= 5; disp++ {
				up, down := c.Coords(), c.Coords()
				up[dim] += disp
				down[dim] -= disp
				wantSrc, ok := c.Rank(down)
				if !ok {
					wantSrc = ProcNull
				}
				wantDst, ok := c.Rank(up)
				if !ok {
					wantDst = ProcNull
				}
				if src, dst := c.Shift(dim, disp); src != wantSrc || dst != wantDst {
					t.Errorf("rank %d Shift(%d, %d) = (%d, %d), want (%d, %d)", rank, dim, disp, src, dst, wantSrc, wantDst)
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Shift(0, 1)
		c.Shift(1, -1)
		c.Shift(2, 3)
	})
	if allocs != 0 {
		t.Errorf("Shift allocates %v times per three calls, want 0", allocs)
	}
}

// TestExchangeRecyclesWireBuffers: a 4-rank ring doing 1000 exchanges
// allocates for its world, not per exchange, whether it discards the halo
// or receives it into a buffer, and so does a ring forwarding a face
// through Send and RecvInto. The count is the process's heap allocations
// (runtime.MemStats.Mallocs) across the whole run, set-up included.
func TestExchangeRecyclesWireBuffers(t *testing.T) {
	const ranks, exchanges, elems = 4, 1000, 64
	// A run's set-up (world, channels, profiler regions, cart) costs a few
	// dozen allocations per rank; one per exchange would be 4000.
	const bound = 64 * ranks
	bodies := map[string]func(p *Proc, c *Cart, send, recv []float64){
		"Exchange/discard": func(p *Proc, c *Cart, send, _ []float64) { c.Exchange(0, 1, send, nil) },
		"Exchange/recv":    func(p *Proc, c *Cart, send, recv []float64) { c.Exchange(0, 1, send, recv) },
		"Send+RecvInto": func(p *Proc, c *Cart, send, recv []float64) {
			src, dst := c.Shift(0, 1)
			p.Send(dst, send)
			p.RecvInto(src, recv)
		},
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Run(ranks, func(p *Proc) error {
				c, err := p.NewCart([]int{ranks}, []bool{true})
				if err != nil {
					return err
				}
				send, recv := make([]float64, elems), make([]float64, elems)
				for i := 0; i < exchanges; i++ {
					send[0] = float64(i)
					body(p, c, send, recv)
				}
				return nil
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := after.Mallocs - before.Mallocs; got > bound {
				t.Errorf("%d exchanges on %d ranks made %d heap allocations, want at most %d", exchanges, ranks, got, bound)
			}
		})
	}
}

// haloBody exchanges seeded halos on a 2-D topology with one periodic and
// one open dimension, in both directions, into receive buffers longer and
// shorter than the halos and into nil, then forwards a face down a
// Kripke-style pipeline with Send and RecvInto. keep records every
// receive buffer after its call.
func haloBody(p *Proc, seed int64, keep func([]float64)) {
	rng := rand.New(rand.NewSource(seed*1000 + int64(p.Rank())))
	c, err := p.NewCart([]int{2, p.Size() / 2}, []bool{true, false})
	if err != nil {
		panic(err)
	}
	for round := 0; round < 3; round++ {
		for dim := 0; dim < 2; dim++ {
			for _, disp := range []int{1, -1} {
				for _, rlen := range []int{5, 3, 0} {
					send := payload(rng, 4)
					var recv []float64
					if rlen > 0 {
						recv = payload(rng, rlen)
					}
					c.Exchange(dim, disp, send, recv)
					keep(recv)
				}
			}
		}
	}
	face := payload(rng, 6)
	for octant := 0; octant < 2; octant++ {
		up, down := p.Rank()-1, p.Rank()+1
		if octant == 1 {
			up, down = down, up
		}
		if up >= 0 && up < p.Size() {
			p.RecvInto(up, face)
		}
		keep(face)
		if down >= 0 && down < p.Size() {
			p.Send(down, face)
		}
	}
}

// observeHalos runs haloBody on size ranks, healthy or under the inert
// plan, and returns each rank's view.
func observeHalos(t *testing.T, size int, seed int64, faults bool) []rankView {
	t.Helper()
	tr := obs.NewTracer(4096)
	opt := &Options{Tracer: tr, Timeout: 30 * time.Second}
	if faults {
		opt.Faults = &FaultPlan{KillRank: size}
	}
	views := make([]rankView, size)
	results, err := RunOpt(size, opt, func(p *Proc) error {
		if (p.faults != nil) != faults {
			return fmt.Errorf("rank %d: faults set = %v, want %v", p.Rank(), p.faults != nil, faults)
		}
		v := &views[p.Rank()]
		haloBody(p, seed, func(b []float64) { v.outs = append(v.outs, append([]float64(nil), b...)) })
		v.events = p.events
		return nil
	})
	if err != nil {
		t.Fatalf("faults=%v: %v", faults, err)
	}
	rt := tr.Runs()[0]
	for r, res := range results {
		v := &views[r]
		if v.counters, err = json.Marshal(res.Counters); err != nil {
			t.Fatal(err)
		}
		if v.profile, err = json.Marshal(res.Profile); err != nil {
			t.Fatal(err)
		}
		ring := rt.Ring(r)
		if ring.Dropped() != 0 {
			t.Fatalf("rank %d trace ring dropped %d events", r, ring.Dropped())
		}
		for _, e := range ring.Events() {
			v.trace = append(v.trace, traceRec{e.Kind, e.Detail, e.Peer, e.Bytes})
		}
	}
	return views
}

// TestHaloPathMatchesFaultLayer: a healthy world and one under the inert
// plan &FaultPlan{KillRank: size}, which draws "deliver" for every message
// but routes each through the fault layer, leave the same received halos
// and faces (bit for bit), communication-event counts, counters, profiler
// JSON and trace (kind, detail, peer, bytes) sequence on every rank, for
// Cart.Exchange and for Send with RecvInto. Run it with -race -count=10.
func TestHaloPathMatchesFaultLayer(t *testing.T) {
	for _, size := range []int{2, 4, 6, 8} {
		t.Run(fmt.Sprintf("p%d", size), func(t *testing.T) {
			seed := int64(size)
			want := observeHalos(t, size, seed, true)
			got := observeHalos(t, size, seed, false)
			for r := range want {
				w, g := want[r], got[r]
				if len(g.outs) != len(w.outs) {
					t.Fatalf("rank %d: %d receive buffers, want %d", r, len(g.outs), len(w.outs))
				}
				for i := range w.outs {
					if !sameBits(g.outs[i], w.outs[i]) {
						t.Errorf("rank %d buffer %d = %v, want %v", r, i, g.outs[i], w.outs[i])
					}
				}
				if g.events != w.events {
					t.Errorf("rank %d: %d communication events, want %d", r, g.events, w.events)
				}
				if !bytes.Equal(g.counters, w.counters) {
					t.Errorf("rank %d counters %s, want %s", r, g.counters, w.counters)
				}
				if !bytes.Equal(g.profile, w.profile) {
					t.Errorf("rank %d profile\n%s\nwant\n%s", r, g.profile, w.profile)
				}
				if fmt.Sprint(g.trace) != fmt.Sprint(w.trace) {
					t.Errorf("rank %d trace\n%v\nwant\n%v", r, g.trace, w.trace)
				}
			}
		})
	}
}

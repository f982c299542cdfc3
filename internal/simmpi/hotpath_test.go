package simmpi

import (
	"fmt"
	"testing"

	"extrareq/internal/counters"
	"extrareq/internal/profile"
)

// Guards for the measurement hot path: instrumentation events must not
// allocate, and a run must create only the rank-pair channels it uses.

// TestInstrumentationAllocFree: counter events on an existing call path
// cost no allocation.
func TestInstrumentationAllocFree(t *testing.T) {
	p := &Proc{Counters: &counters.Set{}, Prof: profile.New()}
	p.Prof.Enter("kernel")
	allocs := testing.AllocsPerRun(1000, func() {
		p.AddFlops(3)
		p.AddLoads(2)
		p.AddStores(1)
	})
	if allocs != 0 {
		t.Errorf("AddFlops/AddLoads/AddStores allocate %v times per call set, want 0", allocs)
	}
}

// createdChannels counts the rank-pair channels a world has created.
func createdChannels(w *World) int {
	n := 0
	for i := range w.chans {
		if w.chans[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestLazyChannelsRing: a bidirectional ring exchange on 64 ranks creates
// its 128 channels, not all 64² pairs.
func TestLazyChannelsRing(t *testing.T) {
	const size = 64
	var world *World
	_, err := Run(size, func(p *Proc) error {
		if p.Rank() == 0 {
			world = p.world
		}
		r := p.Rank()
		right, left := (r+1)%size, (r+size-1)%size
		p.Send(right, []float64{float64(r)})
		p.Send(left, []float64{float64(r)})
		if got := p.Recv(left); got[0] != float64(left) {
			return fmt.Errorf("rank %d from %d: got %v", r, left, got)
		}
		if got := p.Recv(right); got[0] != float64(right) {
			return fmt.Errorf("rank %d from %d: got %v", r, right, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := createdChannels(world); got != 2*size {
		t.Errorf("ring exchange created %d channels, want %d", got, 2*size)
	}
}

// TestLazyChannelFirstUseRace: both ends of many pairs race to create their
// channel, with the receiver first on one direction and the sender first on
// the other; run it under -race. Every message must arrive intact, through
// exactly one channel per direction.
func TestLazyChannelFirstUseRace(t *testing.T) {
	const size = 64
	for run := 0; run < 20; run++ {
		var world *World
		_, err := Run(size, func(p *Proc) error {
			if p.Rank() == 0 {
				world = p.world
			}
			r := p.Rank()
			peer := r ^ 1
			if r%2 == 0 {
				// Receive-first on peer→r, then send-first on r→peer.
				if got := p.Recv(peer); got[0] != float64(peer) {
					return fmt.Errorf("rank %d: got %v", r, got)
				}
				p.Send(peer, []float64{float64(r)})
				return nil
			}
			req := p.Irecv(peer)
			p.Send(peer, []float64{float64(r)})
			if got := req.Wait(); got[0] != float64(peer) {
				return fmt.Errorf("rank %d: got %v", r, got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := createdChannels(world); got != size {
			t.Fatalf("run %d: %d channels, want %d", run, got, size)
		}
	}
}

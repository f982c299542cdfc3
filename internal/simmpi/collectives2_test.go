package simmpi

import (
	"fmt"
	"testing"
	"time"

	"extrareq/internal/counters"
)

func TestGather(t *testing.T) {
	for size := 1; size <= 6; size++ {
		for root := 0; root < size; root++ {
			size, root := size, root
			t.Run(fmt.Sprintf("p%d_root%d", size, root), func(t *testing.T) {
				_, err := Run(size, func(p *Proc) error {
					got := p.Gather(root, []float64{float64(p.Rank()), -float64(p.Rank())})
					if p.Rank() != root {
						if got != nil {
							return fmt.Errorf("non-root got %v", got)
						}
						return nil
					}
					for r := 0; r < size; r++ {
						if got[2*r] != float64(r) || got[2*r+1] != -float64(r) {
							return fmt.Errorf("block %d = %v", r, got[2*r:2*r+2])
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestScatter(t *testing.T) {
	const size = 5
	_, err := Run(size, func(p *Proc) error {
		var chunks [][]float64
		if p.Rank() == 2 {
			chunks = make([][]float64, size)
			for r := range chunks {
				chunks[r] = []float64{float64(10 * r)}
			}
		}
		got := p.Scatter(2, chunks)
		if got[0] != float64(10*p.Rank()) {
			return fmt.Errorf("rank %d got %v", p.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterValidation(t *testing.T) {
	// Rank 0 panics before sending, so rank 1 blocks in Recv; use a short
	// timeout rather than the default to keep the failure path fast.
	_, err := RunOpt(2, &Options{Timeout: 500 * time.Millisecond}, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Scatter(0, [][]float64{{1}}) // wrong chunk count
		} else {
			p.Recv(0)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error (captured panic or timeout) for wrong chunk count")
	}
}

func TestReduceScatter(t *testing.T) {
	const size = 4
	_, err := Run(size, func(p *Proc) error {
		// Every rank contributes [1,2,...,8]; sums are [4,8,...,32];
		// rank i receives elements [2i, 2i+2).
		data := make([]float64, 2*size)
		for i := range data {
			data[i] = float64(i + 1)
		}
		got := p.ReduceScatter(data, Sum)
		if len(got) != 2 {
			return fmt.Errorf("rank %d block length %d", p.Rank(), len(got))
		}
		want0 := float64(size * (2*p.Rank() + 1))
		want1 := float64(size * (2*p.Rank() + 2))
		if got[0] != want0 || got[1] != want1 {
			return fmt.Errorf("rank %d got %v, want [%g %g]", p.Rank(), got, want0, want1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterDivisibility(t *testing.T) {
	_, err := Run(3, func(p *Proc) error {
		p.ReduceScatter(make([]float64, 4), Sum)
		return nil
	})
	if err == nil {
		t.Fatal("expected captured panic for non-divisible length")
	}
}

func TestScan(t *testing.T) {
	const size = 6
	_, err := Run(size, func(p *Proc) error {
		got := p.Scan([]float64{float64(p.Rank() + 1)}, Sum)
		want := float64((p.Rank() + 1) * (p.Rank() + 2) / 2)
		if got[0] != want {
			return fmt.Errorf("rank %d scan = %v, want %g", p.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanMax(t *testing.T) {
	_, err := Run(4, func(p *Proc) error {
		vals := []float64{3, 1, 4, 1}
		got := p.Scan([]float64{vals[p.Rank()]}, Max)
		wants := []float64{3, 3, 4, 4}
		if got[0] != wants[p.Rank()] {
			return fmt.Errorf("rank %d = %v, want %g", p.Rank(), got, wants[p.Rank()])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvHaloExchange(t *testing.T) {
	const size = 5
	results, err := RunOpt(size, &Options{ChannelDepth: 1}, func(p *Proc) error {
		right := (p.Rank() + 1) % size
		left := (p.Rank() - 1 + size) % size
		// Post everything before waiting: must not deadlock even with a
		// single-slot channel.
		s1 := p.Isend(right, []float64{float64(p.Rank())})
		s2 := p.Isend(left, []float64{float64(p.Rank() + 100)})
		r1 := p.Irecv(left)
		r2 := p.Irecv(right)
		msgs := WaitAll(s1, s2, r1, r2)
		if msgs[2][0] != float64(left) {
			return fmt.Errorf("rank %d from left: %v", p.Rank(), msgs[2])
		}
		if msgs[3][0] != float64(right+100) {
			return fmt.Errorf("rank %d from right: %v", p.Rank(), msgs[3])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if got := r.Counters.Value(counters.BytesSent); got != 16 {
			t.Errorf("rank %d sent %d bytes, want 16", r.Rank, got)
		}
		if got := r.Counters.Value(counters.BytesRecv); got != 16 {
			t.Errorf("rank %d received %d bytes, want 16", r.Rank, got)
		}
	}
}

func TestWaitIdempotent(t *testing.T) {
	_, err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			r := p.Isend(1, []float64{7})
			r.Wait()
			r.Wait() // must not double-send
			return nil
		}
		got := p.Recv(0)
		if got[0] != 7 {
			return fmt.Errorf("got %v", got)
		}
		// A second message would now deadlock the sender's Run teardown,
		// but a double-send would have left one queued; verify none.
		select {
		case extra := <-p.world.pair(0, 1):
			return fmt.Errorf("unexpected extra message %v", extra)
		default:
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendCopiesPayload(t *testing.T) {
	_, err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			buf := []float64{1}
			r := p.Isend(1, buf)
			buf[0] = 99
			r.Wait()
			return nil
		}
		if got := p.Recv(0); got[0] != 1 {
			return fmt.Errorf("got %v, want [1]", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidNonblockingRanks(t *testing.T) {
	_, err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Isend(9, nil)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected captured panic for invalid Isend rank")
	}
	_, err = Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Irecv(-1)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected captured panic for invalid Irecv rank")
	}
}

package simmpi

import (
	"fmt"
	"testing"
)

// The BenchmarkMeasure* family tracks the measurement substrate's hot
// paths: the point-to-point exchange, the collectives that dominate the
// proxy applications' traffic, and the nonblocking halo pattern. They are
// the regression gate for the allocation work on those paths — run with
//
//	go test -run=NONE -bench=BenchmarkMeasure -benchmem ./internal/simmpi
//
// (scripts/check.sh executes one iteration of each so the benches cannot
// rot). allocs/op is the headline number: the steady-state exchange paths
// recycle message buffers through the world's pool and should stay near
// zero allocations per message.

// BenchmarkMeasurePointToPoint is a 2-rank ping-pong over Send/Recv. Each
// iteration is one full round trip per rank pair; received buffers are
// returned to the world pool exactly as the collectives do internally.
func BenchmarkMeasurePointToPoint(b *testing.B) {
	for _, elems := range []int{64, 1024} {
		b.Run(fmt.Sprintf("elems=%d", elems), func(b *testing.B) {
			payload := make([]float64, elems)
			for i := range payload {
				payload[i] = float64(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := Run(2, func(p *Proc) error {
					const rounds = 64
					for r := 0; r < rounds; r++ {
						if p.Rank() == 0 {
							p.Send(1, payload)
							msg := p.Recv(1)
							p.release(msg)
						} else {
							msg := p.Recv(0)
							p.release(msg)
							p.Send(0, payload)
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMeasureCollectives exercises the collective algorithms the
// proxy apps lean on (allreduce for CG solvers, bcast for parameters,
// allgather for halo assembly, alltoall for transposes), at 16 ranks and
// at 32, the largest world of the study grid. Each Bcast rank writes into
// its own buffer; every Alltoall rank sends a 256-element vector split
// into one block per rank.
func BenchmarkMeasureCollectives(b *testing.B) {
	const elems = 256
	payload := make([]float64, elems)
	for i := range payload {
		payload[i] = float64(i)
	}
	cases := []struct {
		name string
		body func(p *Proc, bufs [][]float64)
	}{
		{"Allreduce", func(p *Proc, _ [][]float64) { p.Allreduce(payload, Sum) }},
		{"Bcast", func(p *Proc, bufs [][]float64) { p.Bcast(0, bufs[p.Rank()]) }},
		{"Allgather", func(p *Proc, _ [][]float64) { p.Allgather(payload) }},
		{"Alltoall", func(p *Proc, _ [][]float64) {
			chunks := make([][]float64, p.Size())
			m := elems / p.Size()
			for d := range chunks {
				chunks[d] = payload[d*m : (d+1)*m]
			}
			p.Alltoall(chunks)
		}},
		{"Reduce", func(p *Proc, _ [][]float64) { p.Reduce(0, payload, Sum) }},
		{"Barrier", func(p *Proc, _ [][]float64) { p.Barrier() }},
	}
	for _, c := range cases {
		for _, ranks := range []int{16, 32} {
			b.Run(fmt.Sprintf("%s/p=%d", c.name, ranks), func(b *testing.B) {
				bufs := make([][]float64, ranks)
				for r := range bufs {
					bufs[r] = append([]float64(nil), payload...)
				}
				b.ReportAllocs()
				for b.Loop() {
					if _, err := Run(ranks, func(p *Proc) error {
						c.body(p, bufs)
						return nil
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMeasureHaloExchange is the hand-written nonblocking halo
// pattern: post Isend/Irecv to both neighbours, then WaitAll, with a heap
// Request per operation. The proxies exchange their halos through
// Cart.Exchange instead, whose requests live on the stack and whose
// received wire buffers go back to the freelist; BenchmarkCartExchange in
// the root package measures that path.
func BenchmarkMeasureHaloExchange(b *testing.B) {
	const (
		ranks = 8
		elems = 128
	)
	halo := make([]float64, elems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(ranks, func(p *Proc) error {
			right := (p.Rank() + 1) % p.Size()
			left := (p.Rank() - 1 + p.Size()) % p.Size()
			const steps = 16
			for s := 0; s < steps; s++ {
				sr := p.Isend(right, halo)
				sl := p.Isend(left, halo)
				rr := p.Irecv(right)
				rl := p.Irecv(left)
				for _, msg := range WaitAll(sr, sl, rr, rl) {
					p.release(msg)
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

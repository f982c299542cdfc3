package simmpi

import "fmt"

// The collectives below use the standard algorithms so the per-process
// communication volume matches real MPI libraries (and the collective basis
// functions of package pmnf):
//
//	Barrier    dissemination, ceil(log2 p) rounds of empty messages
//	Bcast      binomial tree, non-roots receive m once, forward up the tree
//	Reduce     binomial tree (mirror of Bcast)
//	Allreduce  recursive doubling (~2·m·log2 p sent+received per rank)
//	Allgather  ring, p-1 steps of m bytes each
//	Alltoall   pairwise exchange, p-1 rounds
//
// The code here runs each algorithm message by message over the rank-pair
// channels. In a fault-free world Allreduce and Alltoall, the collectives
// the proxies call in their loops, instead complete at a rendezvous
// (rendezvous.go) with the same outputs and the same per-message
// accounting; with a FaultPlan they take the message path too.
//
// Every collective runs inside an "MPI_<Name>" profiler region so that the
// communication volume is attributed to the application call path that
// issued it, like Score-P does.

// Barrier blocks until every rank has entered it.
func (p *Proc) Barrier() {
	p.collective("MPI_Barrier", 0, func() {
		for k := 1; k < p.size; k <<= 1 {
			dst := (p.rank + k) % p.size
			src := (p.rank - k + p.size) % p.size
			p.Send(dst, nil)
			p.Recv(src)
		}
	})
}

// Bcast distributes root's data to every rank. All ranks must pass a slice
// of the same length; the received values are written into data, which is
// also returned.
func (p *Proc) Bcast(root int, data []float64) []float64 {
	if root < 0 || root >= p.size {
		panic(fmt.Sprintf("simmpi: Bcast with invalid root %d", root))
	}
	p.collective("MPI_Bcast", len(data), func() {
		vrank := (p.rank - root + p.size) % p.size
		// Receive from the parent (except the root itself).
		if vrank != 0 {
			mask := 1
			for mask < p.size {
				if vrank&mask != 0 {
					parent := ((vrank - mask) + root) % p.size
					msg := p.Recv(parent)
					copy(data, msg)
					p.release(msg)
					break
				}
				mask <<= 1
			}
			// Forward to children below the found mask.
			for mask >>= 1; mask > 0; mask >>= 1 {
				if vrank+mask < p.size && vrank&mask == 0 {
					child := (vrank + mask + root) % p.size
					p.Send(child, data)
				}
			}
		} else {
			mask := 1
			for mask < p.size {
				mask <<= 1
			}
			for mask >>= 1; mask > 0; mask >>= 1 {
				if vrank+mask < p.size {
					child := (vrank + mask + root) % p.size
					p.Send(child, data)
				}
			}
		}
	})
	return data
}

// Reduce combines data element-wise across ranks with op; the result is
// valid on root (returned there; other ranks receive nil).
func (p *Proc) Reduce(root int, data []float64, op Op) []float64 {
	if root < 0 || root >= p.size {
		panic(fmt.Sprintf("simmpi: Reduce with invalid root %d", root))
	}
	var out []float64
	p.collective("MPI_Reduce", len(data), func() {
		acc := p.clone(data)
		vrank := (p.rank - root + p.size) % p.size
		mask := 1
		for mask < p.size {
			if vrank&mask != 0 {
				parent := ((vrank &^ mask) + root) % p.size
				p.Send(parent, acc)
				p.release(acc)
				acc = nil
				break
			}
			peer := vrank | mask
			if peer < p.size {
				recv := p.Recv((peer + root) % p.size)
				op.apply(acc, recv)
				p.release(recv)
			}
			mask <<= 1
		}
		if p.rank == root {
			out = acc // ownership passes to the caller, never recycled
		}
	})
	return out
}

// Allreduce combines data element-wise across all ranks with op and returns
// the result on every rank. It uses recursive doubling with the standard
// pre/post exchange for non-power-of-two sizes.
func (p *Proc) Allreduce(data []float64, op Op) []float64 {
	var out []float64
	p.collective("MPI_Allreduce", len(data), func() {
		if p.faults == nil {
			out = p.meetAllreduce(data, op)
			return
		}
		acc := p.clone(data)
		p2, extra := pow2Split(p.size)
		// Fold the extra ranks into the power-of-two group.
		if p.rank >= p2 {
			p.Send(p.rank-p2, acc)
			p.release(acc)
			acc = p.Recv(p.rank - p2) // final result arrives afterwards
			out = acc
			return
		}
		if p.rank < extra {
			recv := p.Recv(p.rank + p2)
			op.apply(acc, recv)
			p.release(recv)
		}
		// Recursive doubling among the first p2 ranks. Both partners
		// combine the lower rank's value first, so they hold the same bits
		// even where the combine is not commutative: the sum of two NaNs
		// keeps the first operand's payload.
		for mask := 1; mask < p2; mask <<= 1 {
			peer := p.rank ^ mask
			recv := p.SendRecv(peer, acc, peer)
			if peer < p.rank {
				acc, recv = recv, acc
			}
			op.apply(acc, recv)
			p.release(recv)
		}
		if p.rank < extra {
			p.Send(p.rank+p2, acc)
		}
		out = acc // ownership passes to the caller
	})
	return out
}

// Allgather collects each rank's equally sized block on every rank using a
// ring algorithm. The result is the concatenation ordered by rank.
func (p *Proc) Allgather(data []float64) []float64 {
	m := len(data)
	out := make([]float64, m*p.size)
	p.collective("MPI_Allgather", len(data), func() {
		copy(out[p.rank*m:], data)
		right := (p.rank + 1) % p.size
		left := (p.rank - 1 + p.size) % p.size
		cur := p.rank
		block := p.clone(data)
		for step := 1; step < p.size; step++ {
			next := p.SendRecv(right, block, left)
			p.release(block)
			block = next
			cur = (cur - 1 + p.size) % p.size
			copy(out[cur*m:], block)
		}
		p.release(block)
	})
	return out
}

// Alltoall exchanges personalized blocks: chunks[i] goes to rank i, and the
// returned slice holds, at position i, the block received from rank i. All
// ranks must pass p.Size() chunks of equal length.
func (p *Proc) Alltoall(chunks [][]float64) [][]float64 {
	if len(chunks) != p.size {
		panic(fmt.Sprintf("simmpi: Alltoall with %d chunks, world size %d", len(chunks), p.size))
	}
	out := make([][]float64, p.size)
	p.collective("MPI_Alltoall", len(chunks[p.rank]), func() {
		if p.faults == nil {
			p.meetAlltoall(chunks, out)
			return
		}
		out[p.rank] = append([]float64(nil), chunks[p.rank]...)
		for step := 1; step < p.size; step++ {
			dst := (p.rank + step) % p.size
			src := (p.rank - step + p.size) % p.size
			out[src] = p.SendRecv(dst, chunks[dst], src)
		}
	})
	return out
}

// pow2Split returns the largest power of two p2 <= size and the number of
// ranks beyond it, which recursive doubling folds into the first ones.
func pow2Split(size int) (p2, extra int) {
	p2 = 1
	for p2*2 <= size {
		p2 *= 2
	}
	return p2, size - p2
}

package simmpi

import (
	"fmt"
	"sync/atomic"
)

// Allreduce and Alltoall at a rendezvous.
//
// In a world without a FaultPlan these two collectives, the ones the proxies
// call in their solver and exchange loops, do not move their messages over
// the rank-pair channels. Every rank deposits its part of the call at the
// world's meeting point and parks once; the last rank to arrive computes
// every rank's output, in the combine order of the message algorithm, and
// releases the others. Each rank then charges its counters, call-path
// profile, trace and event count with the messages that algorithm sends and
// receives on that rank: the same peers, the same sizes, in the same
// Send/Recv order. DESIGN §6l explains why the outputs are bit-identical to
// the message path's. Worlds with a FaultPlan keep the message path,
// because drops, duplicates, delays and kills act on single messages, and
// so do the other collectives, which no proxy calls in a loop.

// call is one rank's part of a collective, deposited at a meeting.
type call struct {
	// name, op and n identify the collective, and every rank of a meeting
	// must agree on them. n is Allreduce's element count; Alltoall's blocks
	// may differ in length, so it leaves n at 0.
	name string
	op   Op
	n    int

	out    []float64   // Allreduce: a copy of the rank's data, then the result
	chunks [][]float64 // Alltoall: the blocks the rank sends
	blocks [][]float64 // Alltoall: the blocks the rank receives
}

// same reports whether two deposits name the same collective call.
func (c *call) same(o *call) bool {
	return c.name == o.name && c.op == o.op && c.n == o.n
}

func (c *call) describe() string {
	return fmt.Sprintf("%s(op %d, %d elements)", c.name, c.op, c.n)
}

// meeting is the rendezvous of one collective.
type meeting struct {
	arrived atomic.Int32
	done    chan struct{} // closed by the last arriver once every output is ready
	calls   []call        // calls[r] is rank r's deposit
}

// meetings returns the world's two meetings, allocating them on the first
// rendezvous: worlds that never reach one never pay for them. Rendezvous k
// of every rank meets at meetings()[k%2]: a rank enters rendezvous k+2 only
// after k+1 is complete, which takes every rank having left k, so that
// meeting is free again.
func (w *World) meetings() *[2]meeting {
	w.meetOnce.Do(func() {
		w.meets = new([2]meeting)
		for i := range w.meets {
			w.meets[i].calls = make([]call, w.size)
		}
		w.meets[0].done = make(chan struct{})
	})
	return w.meets
}

// meet deposits c as this rank's part of its next rendezvous and parks
// until every rank has deposited. The last rank to arrive checks that all
// ranks entered the same collective, runs finish over every deposit,
// readies the next meeting and releases the others. meet returns the
// rank's deposit, which then holds its outputs.
func (p *Proc) meet(c call, finish func(calls []call)) *call {
	p.checkCancel()
	ms := p.world.meetings()
	m := &ms[p.colls%2]
	p.colls++
	m.calls[p.rank] = c
	done := m.done
	if int(m.arrived.Add(1)) < p.size {
		p.park(done)
		return &m.calls[p.rank]
	}
	if msg := mismatch(m.calls); msg != "" {
		// Die before the release: the run reports this rank's RankError,
		// the world is cancelled, and the parked ranks unwind instead of
		// returning mixed data.
		panic(msg)
	}
	finish(m.calls)
	next := &ms[p.colls%2]
	next.arrived.Store(0)
	next.done = make(chan struct{})
	close(done)
	return &m.calls[p.rank]
}

// park blocks until done is closed. As in recvWire, a completed meeting
// wins over cancellation, and an incomplete one in a cancelled run unwinds
// the rank.
func (p *Proc) park(done chan struct{}) {
	select {
	case <-done:
		return
	default:
	}
	select {
	case <-done:
	case <-p.world.cancel:
		select {
		case <-done:
		default:
			panic(cancelPanic{})
		}
	}
}

// mismatch names every rank whose deposit differs from rank 0's, or
// returns "" when all ranks entered the same collective.
func mismatch(calls []call) string {
	var bad []int
	for r := 1; r < len(calls); r++ {
		if !calls[r].same(&calls[0]) {
			bad = append(bad, r)
		}
	}
	if bad == nil {
		return ""
	}
	msg := "simmpi: collective mismatch: rank 0 entered " + calls[0].describe()
	for _, r := range bad {
		msg += fmt.Sprintf(", rank %d entered %s", r, calls[r].describe())
	}
	return msg
}

// sent and received charge the rank one message of a collective's
// schedule, exactly as Send and Recv count it: one communication event,
// the byte and message counters, the call-path profile and the trace.
func (p *Proc) sent(dst, elems int) {
	p.commEvent()
	p.countSend(dst, "", int64(elems*bytesPerElem))
}

func (p *Proc) received(src, elems int) {
	p.commEvent()
	p.countRecv(src, "", int64(elems*bytesPerElem))
}

// meetAllreduce is Allreduce at a rendezvous. Every rank deposits a copy
// of its data, which ends up holding the result; each rank charges its
// messages of recursive doubling.
func (p *Proc) meetAllreduce(data []float64, op Op) []float64 {
	c := p.meet(call{name: "MPI_Allreduce", op: op, n: len(data), out: p.clone(data)}, finishAllreduce)
	m := len(data)
	p2, extra := pow2Split(p.size)
	if p.rank >= p2 {
		p.sent(p.rank-p2, m)
		p.received(p.rank-p2, m)
		return c.out
	}
	if p.rank < extra {
		p.received(p.rank+p2, m)
	}
	for mask := 1; mask < p2; mask <<= 1 {
		p.sent(p.rank^mask, m)
		p.received(p.rank^mask, m)
	}
	if p.rank < extra {
		p.sent(p.rank+p2, m)
	}
	return c.out
}

// finishAllreduce computes rank 0's value under recursive doubling: the
// pre-fold of rank r+p2 into rank r, then rank 0's side of the butterfly,
// which is the binomial tree over the first p2 ranks. At level mask, each
// rank v that is a multiple of 2·mask folds in rank v+mask, whose own
// subtree is complete by then. Every rank of the message path ends with
// the same bits, because both partners of each butterfly round combine
// the lower rank's value first; so rank 0's value is copied to all.
func finishAllreduce(calls []call) {
	op := calls[0].op
	p2, extra := pow2Split(len(calls))
	for r := 0; r < extra; r++ {
		op.apply(calls[r].out, calls[r+p2].out)
	}
	for mask := 1; mask < p2; mask <<= 1 {
		for v := 0; v+mask < p2; v += 2 * mask {
			op.apply(calls[v].out, calls[v+mask].out)
		}
	}
	for r := 1; r < len(calls); r++ {
		copy(calls[r].out, calls[0].out)
	}
}

// meetAlltoall is Alltoall at a rendezvous: out[q] receives a copy of the
// block rank q addressed to this rank; each rank charges the pairwise
// exchange's p-1 rounds.
func (p *Proc) meetAlltoall(chunks, out [][]float64) {
	p.meet(call{name: "MPI_Alltoall", chunks: chunks, blocks: out}, finishAlltoall)
	for step := 1; step < p.size; step++ {
		dst := (p.rank + step) % p.size
		src := (p.rank - step + p.size) % p.size
		p.sent(dst, len(chunks[dst]))
		p.received(src, len(out[src]))
	}
}

// finishAlltoall copies the blocks each rank receives into one allocation
// per receiving rank, capped so that appending to one block cannot
// overwrite the next. An empty block stays nil, like an empty message.
func finishAlltoall(calls []call) {
	for r := range calls {
		total := 0
		for q := range calls {
			total += len(calls[q].chunks[r])
		}
		buf := make([]float64, total)
		for q := range calls {
			if n := copy(buf, calls[q].chunks[r]); n > 0 {
				calls[r].blocks[q] = buf[:n:n]
				buf = buf[n:]
			}
		}
	}
}

package simmpi

import "fmt"

// Nonblocking point-to-point operations, modeled after MPI_Isend/Irecv.
//
// A Request is completed by Wait (or WaitAll). Implementation note: an
// Isend tries to hand the message to the (buffered) channel immediately;
// when the channel is full the actual transfer happens inside Wait. As a
// consequence, message order between two ranks is the order in which the
// transfers complete (eager sends first, deferred sends at their Wait),
// which matches the usual halo-exchange usage — post all Isend/Irecv, then
// WaitAll — but, unlike MPI's non-overtaking rule, is not guaranteed when
// Wait calls are interleaved arbitrarily with blocking Sends to the same
// destination.

// Request is a pending nonblocking operation.
type Request struct {
	proc *Proc
	// send fields: wire[next:nwire] are the wire messages not yet
	// enqueued (the payload, or under a FaultPlan nothing or the payload
	// and a duplicate; see outgoing)
	dst         int
	wire        [2][]float64
	next, nwire int
	// recv fields
	src    int
	isRecv bool
	result []float64
	done   bool
}

// Isend starts a nonblocking send to dst. The payload is copied
// immediately, so the caller may reuse the slice. Byte counters are updated
// at Isend time (the payload is committed to the network). Fault injection
// applies exactly as in Send: the message may be dropped, delayed, or
// duplicated while the counters record one message.
func (p *Proc) Isend(dst int, data []float64) *Request {
	r := new(Request)
	p.isend(r, dst, data)
	return r
}

// isend starts the send into r, which the caller may hold on its stack
// (Cart.Exchange does): no path through isend or Wait retains r.
func (p *Proc) isend(r *Request, dst int, data []float64) {
	if dst < 0 || dst >= p.size {
		panic(fmt.Sprintf("simmpi: Isend to invalid rank %d (size %d)", dst, p.size))
	}
	p.commEvent()
	msg := p.clone(data)
	p.countSend(dst, "isend", int64(len(msg)*bytesPerElem))
	*r = Request{proc: p, dst: dst}
	r.wire, r.nwire = p.outgoing(dst, msg)
	ch := p.world.pair(p.rank, dst)
	for ; r.next < r.nwire; r.next++ {
		select {
		case ch <- r.wire[r.next]:
		default:
			// Channel full: the transfer completes in Wait.
			return
		}
	}
	r.done = true
}

// Irecv starts a nonblocking receive from src. The message is delivered by
// Wait.
func (p *Proc) Irecv(src int) *Request {
	r := new(Request)
	p.irecv(r, src)
	return r
}

// irecv starts the receive into r; like isend it does not retain r.
func (p *Proc) irecv(r *Request, src int) {
	if src < 0 || src >= p.size {
		panic(fmt.Sprintf("simmpi: Irecv from invalid rank %d (size %d)", src, p.size))
	}
	p.commEvent()
	*r = Request{proc: p, src: src, isRecv: true}
}

// Wait completes the operation. For receives it returns the message; for
// sends it returns nil. Wait is idempotent. Like the blocking primitives,
// Wait polls the run's cancel gate: a cancelled run unwinds the rank
// instead of blocking forever.
func (r *Request) Wait() []float64 {
	if r.done {
		return r.result
	}
	p := r.proc
	if r.isRecv {
		p.checkCancel()
		msg := p.recvWire(r.src)
		p.countRecv(r.src, "irecv", int64(len(msg)*bytesPerElem))
		r.result = msg
		r.done = true
		return msg
	}
	ch := p.world.pair(p.rank, r.dst)
	for ; r.next < r.nwire; r.next++ {
		p.checkCancel()
		select {
		case ch <- r.wire[r.next]:
		case <-p.world.cancel:
			panic(cancelPanic{})
		}
	}
	r.done = true
	return nil
}

// WaitAll completes every request and returns the received messages in
// request order (nil entries for sends).
func WaitAll(reqs ...*Request) [][]float64 {
	out := make([][]float64, len(reqs))
	for i, r := range reqs {
		out[i] = r.Wait()
	}
	return out
}

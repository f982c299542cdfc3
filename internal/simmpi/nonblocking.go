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
	// send fields
	dst     int
	pending [][]float64 // wire messages not yet enqueued (fault dup/defer)
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
	if dst < 0 || dst >= p.size {
		panic(fmt.Sprintf("simmpi: Isend to invalid rank %d (size %d)", dst, p.size))
	}
	p.commEvent()
	msg := p.clone(data)
	p.countSend(dst, "isend", int64(len(msg)*bytesPerElem))
	r := &Request{proc: p, dst: dst}
	ch := p.world.pair(p.rank, dst)
	if p.faults == nil {
		// Healthy fast path: one eager enqueue attempt, no wire-message
		// slice — only a full channel defers the transfer to Wait.
		select {
		case ch <- msg:
			r.done = true
		default:
			r.pending = [][]float64{msg}
		}
		return r
	}
	r.pending = p.outgoing(dst, msg)
	for len(r.pending) > 0 {
		select {
		case ch <- r.pending[0]:
			r.pending = r.pending[1:]
		default:
			// Channel full: the transfer completes in Wait.
			return r
		}
	}
	r.done = true
	return r
}

// Irecv starts a nonblocking receive from src. The message is delivered by
// Wait.
func (p *Proc) Irecv(src int) *Request {
	if src < 0 || src >= p.size {
		panic(fmt.Sprintf("simmpi: Irecv from invalid rank %d (size %d)", src, p.size))
	}
	p.commEvent()
	return &Request{proc: p, src: src, isRecv: true}
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
	for len(r.pending) > 0 {
		p.checkCancel()
		select {
		case ch <- r.pending[0]:
			r.pending = r.pending[1:]
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

package simmpi

// Message-buffer recycling for the point-to-point hot path.
//
// Every Send copies the caller's payload into a wire buffer whose
// ownership travels with the message: the sender gives it up at enqueue,
// the receiver owns it from Recv on. Instead of allocating that buffer per
// message, each rank keeps a small freelist of buffers it has finished
// with; a released buffer is reused by the rank's next outbound copy (or
// collective scratch). The freelist is strictly rank-local — it is touched
// only from the owning rank's goroutine, so recycling adds no
// synchronization to the runtime — and it lives as long as the run: no
// buffer outlives the world that allocated it.
//
// Ownership rules (internal discipline, enforced by review and the race
// detector, not the type system):
//
//   - A buffer may be released at most once, by the goroutine that owns it.
//   - The runtime releases only buffers it consumed itself: collective
//     scratch and intermediate reductions, and the wire buffers of halos
//     that Cart.Exchange and RecvInto copied into the caller's receive
//     buffer. Buffers returned to the application (Recv and Wait results,
//     collective outputs) are never recycled behind the caller's back.
//   - A freelist buffer is handed out only for a message that fits it
//     without wasting more than half of it (see getBuf), because the
//     message may end up owned by the application and leave the freelist
//     for good.

// freelistCap bounds the per-rank freelist so a rank that receives much
// more than it sends (e.g. a Bcast leaf) cannot accumulate unbounded
// buffers; beyond the cap, released buffers are simply dropped for the GC.
const freelistCap = 64

// getBuf returns a length-n buffer. It reuses the most recently released
// buffer when that one holds n elements and no more than 2n: a larger one
// stays on the freelist for the halo it came from, instead of going out as
// a one-element Allreduce result that the application keeps. A buffer too
// small for n is let go instead of scanning the freelist. n == 0 returns
// nil: empty messages (Barrier) travel as nil payloads and never touch the
// pool.
func (p *Proc) getBuf(n int) []float64 {
	if n == 0 {
		return nil
	}
	if l := len(p.free); l > 0 {
		b := p.free[l-1]
		if cap(b) > 2*n {
			return make([]float64, n)
		}
		p.free[l-1] = nil
		p.free = p.free[:l-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float64, n)
}

// clone copies data into a pooled buffer — the allocation-free substitute
// for append([]float64(nil), data...) on the hot path.
func (p *Proc) clone(data []float64) []float64 {
	buf := p.getBuf(len(data))
	copy(buf, data)
	return buf
}

// release returns a consumed message buffer to the rank's freelist. Safe
// to call with nil. The caller must not touch buf afterwards: the next
// Send from this rank may overwrite it.
func (p *Proc) release(buf []float64) {
	if cap(buf) == 0 || len(p.free) >= freelistCap {
		return
	}
	p.free = append(p.free, buf[:0])
}

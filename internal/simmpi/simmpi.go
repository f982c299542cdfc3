// Package simmpi is a functional, in-process MPI substitute: each rank runs
// as a goroutine and point-to-point messages travel over Go channels. The
// collectives follow the standard algorithms (recursive doubling, binomial
// trees, ring and pairwise exchange) so that the number of bytes each
// process injects into and receives from the network matches what a real
// MPI library exhibits. They run message by message over the rank-pair
// channels, except that in a fault-free world Allreduce and Alltoall
// complete at one world-level rendezvous that computes the same results and
// charges each rank the same messages (see rendezvous.go). With a FaultPlan
// those two run over messages too, because faults act per message.
//
// This is the substitution for the paper's physical test systems (JUQUEEN,
// Lichtenberg): the requirements metrics of Table I are counts at the
// hardware/software interface, and a functional runtime produces exactly
// those per-process counts. Every message a rank sends or receives updates
// the owning process's counters.Set (BytesSent/BytesRecv) and attributes
// the volume to the current call path of the process's profiler, mirroring
// Score-P's per-call-path attribution.
package simmpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"extrareq/internal/counters"
	"extrareq/internal/obs"
	"extrareq/internal/profile"
)

// Op is a reduction operator for Allreduce and Reduce.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

// apply combines src into dst element-wise. src must be at least as long as
// dst: a shorter operand panics on its first missing element, so a
// mismatched message fails its rank instead of reading a stale tail.
func (o Op) apply(dst, src []float64) {
	switch o {
	case Sum:
		for i := range dst {
			dst[i] += src[i]
		}
	case Max:
		for i := range dst {
			dst[i] = math.Max(dst[i], src[i])
		}
	case Min:
		for i := range dst {
			dst[i] = math.Min(dst[i], src[i])
		}
	}
}

// bytesPerElem is the wire size of one payload element (float64).
const bytesPerElem = 8

// World owns the communication channels of one simulated job.
type World struct {
	size, depth int
	// chans[src*size+dst] is the src→dst channel, created on first use by
	// either end (see pair): most proxies talk to a few neighbours, so
	// eagerly allocating all size² channels of depth `depth` would cost far
	// more than the messages they carry.
	chans []atomic.Pointer[chan []float64]

	// cancel is closed exactly once when the run is being torn down
	// (timeout or context cancellation). Every blocking communication
	// primitive selects on it, so no rank stays parked in a channel
	// operation after cancellation.
	cancel     chan struct{}
	cancelOnce sync.Once

	// meets are the rendezvous of a fault-free world's Allreduce and
	// Alltoall calls, allocated by the first of them (see meetings).
	meets    *[2]meeting
	meetOnce sync.Once
}

// pair returns the src→dst channel, creating it if neither end has used it
// yet. Both ends may race to create it; the compare-and-swap publishes
// exactly one channel and the loser adopts it.
func (w *World) pair(src, dst int) chan []float64 {
	slot := &w.chans[src*w.size+dst]
	if c := slot.Load(); c != nil {
		return *c
	}
	c := make(chan []float64, w.depth)
	if slot.CompareAndSwap(nil, &c) {
		return c
	}
	return *slot.Load()
}

// doCancel requests cancellation of every rank in the world. Idempotent.
func (w *World) doCancel() {
	w.cancelOnce.Do(func() { close(w.cancel) })
}

// Proc is the handle a rank's body function uses: its identity, the
// communication operations, and its measurement infrastructure.
type Proc struct {
	rank, size int
	world      *World

	// Counters is the process-local PAPI-substitute counter set. The
	// runtime updates BytesSent/BytesRecv; application kernels add FLOP,
	// Load, Store, and memory-footprint events.
	Counters *counters.Set
	// Prof is the process-local call-path profiler. Communication volume is
	// attributed to the current call path automatically.
	Prof *profile.Profiler

	// events counts the rank's communication calls (Send/Recv/Isend/Irecv);
	// faults holds the rank's resolved fault-injection state (nil when the
	// run has no FaultPlan); ring is the rank's trace buffer (nil when the
	// run has no Tracer); free is the rank's message-buffer freelist (see
	// pool.go); colls counts the rendezvous the rank has entered. All five
	// are owned by the rank goroutine.
	events int64
	faults *rankFaults
	ring   *obs.Ring
	free   [][]float64
	colls  int
}

// emit records one trace event when tracing is enabled.
func (p *Proc) emit(kind obs.Kind, detail string, peer int, bytes int64) {
	if p.ring != nil {
		p.ring.Emit(kind, detail, peer, bytes)
	}
}

// collective marks entry into the named collective in the trace and runs
// body inside the matching profiler region, so both the event stream and
// the call-path profile attribute the collective's messages to it, whether
// body exchanges them over the channels or charges them after a rendezvous.
func (p *Proc) collective(name string, elems int, body func()) {
	p.emit(obs.KindCollective, name, -1, int64(elems)*bytesPerElem)
	p.Prof.InRegion(name, body)
}

// commEvent counts one communication call and fires an injected rank kill
// when the rank reaches its death event.
func (p *Proc) commEvent() {
	p.events++
	if p.faults != nil {
		p.faults.event(p.events)
	}
}

// Rank returns this process's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of processes.
func (p *Proc) Size() int { return p.size }

// Result is the outcome of one rank after a Run.
type Result struct {
	Rank     int
	Counters *counters.Set
	Profile  *profile.Profiler
	Err      error
}

// Timeout sentinels for Options.Timeout and Options.DrainTimeout. A zero
// duration is the "use the default" sentinel (the zero Options value keeps
// the safe defaults); any negative duration disables the corresponding
// watchdog. An explicit zero-length run timeout — abort immediately — is
// expressed through RunContext with an already-expired context, e.g.
// context.WithTimeout(ctx, 0).
const (
	// DefaultTimeout is the run watchdog applied when Options.Timeout == 0.
	DefaultTimeout = 60 * time.Second
	// DefaultDrainTimeout is the cancellation grace period applied when
	// Options.DrainTimeout == 0.
	DefaultDrainTimeout = 5 * time.Second
	// NoTimeout disables a watchdog (any negative duration does).
	NoTimeout time.Duration = -1
)

// Options configure a Run.
type Options struct {
	// ChannelDepth is the per-pair message buffer (eager limit); messages
	// beyond it block the sender. Default 64.
	ChannelDepth int
	// Timeout cancels the run if the ranks have not finished in time
	// (typically a communication deadlock in the body function). On expiry
	// the runtime cancels the world and drains the rank goroutines instead
	// of abandoning them, so a timed-out run returns the partial per-rank
	// results together with ErrTimeout. 0 means DefaultTimeout; NoTimeout
	// (any negative duration) disables the watchdog.
	Timeout time.Duration
	// DrainTimeout bounds how long a cancelled run waits for the rank
	// goroutines to acknowledge cancellation. Ranks blocked in runtime
	// communication unwind immediately; a body spinning in pure computation
	// must poll Proc.Cancelled to be drainable. If the grace period expires
	// the goroutines are abandoned and no results are returned (the slice
	// they write into is never read again, keeping the run race-free even
	// on this last-resort path). 0 means DefaultDrainTimeout; NoTimeout
	// waits forever.
	DrainTimeout time.Duration
	// Faults injects deterministic failures into the run (rank kills,
	// message drops/delays/duplicates, counter perturbation). nil or an
	// all-zero plan injects nothing. See FaultPlan.
	Faults *FaultPlan
	// Tracer records per-rank communication, fault, and cancellation
	// events into bounded ring buffers (one ring per rank, owned by the
	// rank's goroutine — tracing adds no synchronization to the run). nil
	// disables tracing; the hot-path cost of a disabled tracer is one nil
	// check per event.
	Tracer *obs.Tracer
	// TraceTag labels this run's trace (campaign runners tag runs
	// "app/p=../n=../attempt=../rep=.."). Ignored without a Tracer.
	TraceTag string
}

// resolveTimeouts maps the Options sentinels onto effective durations.
// A negative return value means "disabled" (run) or "wait forever" (drain).
func resolveTimeouts(opt *Options) (run, drain time.Duration) {
	run, drain = DefaultTimeout, DefaultDrainTimeout
	if opt != nil {
		if opt.Timeout != 0 {
			run = opt.Timeout
		}
		if opt.DrainTimeout != 0 {
			drain = opt.DrainTimeout
		}
	}
	return run, drain
}

// ErrTimeout is returned by Run when ranks fail to finish in time
// (typically a communication deadlock in the body function).
var ErrTimeout = errors.New("simmpi: run timed out (deadlock in rank bodies?)")

// ErrCancelled is the per-rank error of ranks that were unwound by
// cancellation, and is wrapped by RunContext's run-level error when the
// caller's context is the cancellation cause.
var ErrCancelled = errors.New("simmpi: run cancelled")

// cancelPanic unwinds a rank body from inside a communication primitive
// once the world has been cancelled. It is recovered by the rank goroutine
// and converted into ErrCancelled; it never escapes the package.
type cancelPanic struct{}

// Run executes body on every rank of a world of the given size and returns
// the per-rank results. A panic inside a body is captured as that rank's
// Err. Results are ordered by rank.
func Run(size int, body func(*Proc) error) ([]Result, error) {
	return RunOpt(size, nil, body)
}

// RunOpt is Run with explicit options.
func RunOpt(size int, opt *Options, body func(*Proc) error) ([]Result, error) {
	return RunContext(context.Background(), size, opt, body)
}

// RunContext is Run with explicit options and a cancellation signal.
// Cancelling ctx (or hitting Options.Timeout) closes the world's cancel
// gate: every rank blocked in Send/Recv/Wait or parked at an Allreduce or
// Alltoall rendezvous unwinds with ErrCancelled as its per-rank error,
// cooperative bodies can poll Proc.Cancelled, and RunContext returns the
// partial per-rank results only after every rank goroutine has exited —
// each goroutine writes exclusively its own result slot and the slice is
// read strictly after the goroutines' wait group completes, so the run is
// race-free on every path. The run-level error is ErrTimeout for a
// watchdog expiry and wraps ErrCancelled (with context.Cause) for a
// context cancellation.
func RunContext(ctx context.Context, size int, opt *Options, body func(*Proc) error) ([]Result, error) {
	if size < 1 {
		return nil, fmt.Errorf("simmpi: invalid world size %d", size)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	depth := 64
	if opt != nil && opt.ChannelDepth > 0 {
		depth = opt.ChannelDepth
	}
	timeout, drain := resolveTimeouts(opt)
	w := &World{
		size:   size,
		depth:  depth,
		chans:  make([]atomic.Pointer[chan []float64], size*size),
		cancel: make(chan struct{}),
	}
	// Resolve the fault plan (victim rank and death event) before any rank
	// starts, so injected faults never depend on goroutine scheduling.
	var wf *worldFaults
	if opt != nil && opt.Faults.Active() {
		wf = opt.Faults.resolve(size)
	}
	// Register the run's trace before any rank starts: ring buffers are
	// preallocated per rank, so the ranks themselves never synchronize on
	// the tracer.
	var rt *obs.RunTrace
	if opt != nil && opt.Tracer != nil {
		rt = opt.Tracer.StartRun(opt.TraceTag, size)
	}
	results := make([]Result, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := &Proc{
				rank:     rank,
				size:     size,
				world:    w,
				Counters: &counters.Set{},
				Prof:     profile.New(),
			}
			if wf != nil {
				p.faults = wf.forRank(rank)
			}
			if rt != nil {
				p.ring = rt.Ring(rank)
			}
			// Each goroutine owns results[rank] exclusively; Run reads the
			// slice only after wg.Wait() has established happens-before.
			results[rank] = Result{Rank: rank, Counters: p.Counters, Profile: p.Prof}
			defer func() {
				if rec := recover(); rec != nil {
					switch rec := rec.(type) {
					case cancelPanic:
						p.emit(obs.KindCancel, "run cancelled", -1, 0)
						results[rank].Err = ErrCancelled
					case killPanic:
						p.emit(obs.KindFault, "kill", -1, 0)
						results[rank].Err = &RankError{
							Rank: rank, Event: rec.event, Injected: true,
							Reason: "injected rank kill",
						}
						// A dead rank can never serve its peers: cancel the
						// world so they unwind instead of blocking until the
						// watchdog fires.
						w.doCancel()
					default:
						p.emit(obs.KindFault, "panic", -1, 0)
						results[rank].Err = &RankError{
							Rank: rank, Event: p.events,
							Reason: fmt.Sprint(rec), Stack: string(debug.Stack()),
						}
						w.doCancel()
					}
				}
			}()
			err := body(p)
			if err == nil && p.faults != nil {
				// Perturbed counter readings apply only to ranks that finish
				// cleanly: a sample either fails loudly or reads noisily.
				p.faults.perturbCounters(p.Counters)
			}
			results[rank].Err = err
		}(r)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	var timer <-chan time.Time
	if timeout >= 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	var cause error
	select {
	case <-done:
	case <-timer:
		cause = ErrTimeout
	case <-ctx.Done():
		cause = fmt.Errorf("%w: %v", ErrCancelled, context.Cause(ctx))
	}
	if cause != nil {
		// Cancel + drain instead of abandoning live goroutines: ranks
		// blocked in communication unwind via the cancel gate, finished
		// ranks keep their results.
		w.doCancel()
		if drain < 0 {
			<-done
		} else {
			dt := time.NewTimer(drain)
			defer dt.Stop()
			select {
			case <-done:
			case <-dt.C:
				// Last resort: a body ignored cancellation (e.g. an infinite
				// compute loop that never polls Cancelled). The goroutines
				// are abandoned and results must not be read; the run's
				// trace rings are poisoned too, since the leaked writers may
				// still be emitting into them.
				if rt != nil {
					rt.Abandon()
				}
				return nil, fmt.Errorf("%w (rank goroutines ignored cancellation for %v and were abandoned)", cause, drain)
			}
		}
		return results, cause
	}
	// A rank death cancels the world, so peers legitimately finish with
	// ErrCancelled; surface the root-cause rank (the RankError) rather than
	// the first collaterally cancelled one.
	var cancelled *Result
	for i, res := range results {
		if res.Err == nil {
			continue
		}
		if errors.Is(res.Err, ErrCancelled) {
			if cancelled == nil {
				cancelled = &results[i]
			}
			continue
		}
		return results, fmt.Errorf("simmpi: rank %d failed: %w", res.Rank, res.Err)
	}
	if cancelled != nil {
		return results, fmt.Errorf("simmpi: rank %d failed: %w", cancelled.Rank, cancelled.Err)
	}
	return results, nil
}

// Cancelled reports whether the run has been cancelled (watchdog timeout
// or context cancellation). Bodies with long communication-free compute
// phases should poll it and return early; every communication primitive
// polls it implicitly.
func (p *Proc) Cancelled() bool {
	select {
	case <-p.world.cancel:
		return true
	default:
		return false
	}
}

// checkCancel unwinds the calling rank body if the run has been cancelled.
// Called at the head of every communication primitive.
func (p *Proc) checkCancel() {
	if p.Cancelled() {
		panic(cancelPanic{})
	}
}

// Send transmits data to rank dst. The payload is copied, so the caller may
// reuse the slice. Sending to self is allowed (buffered).
//
// Under a FaultPlan the message may be dropped (counted as injected but
// never delivered), delayed (pure latency), or duplicated (delivered
// twice); the send-side counters always record exactly one message.
func (p *Proc) Send(dst int, data []float64) {
	if dst < 0 || dst >= p.size {
		panic(fmt.Sprintf("simmpi: Send to invalid rank %d (size %d)", dst, p.size))
	}
	p.checkCancel()
	p.commEvent()
	wire, n := p.outgoing(dst, p.clone(data))
	for _, m := range wire[:n] {
		p.sendWire(dst, m)
	}
	p.countSend(dst, "", int64(len(data)*bytesPerElem))
}

// countSend records one message of nbytes sent to dst in the counters, the
// call-path profile and the trace.
func (p *Proc) countSend(dst int, detail string, nbytes int64) {
	p.Counters.Add(counters.BytesSent, nbytes)
	p.Counters.Add(counters.MsgsSent, 1)
	p.Prof.Add(profile.BytesSent, float64(nbytes))
	p.emit(obs.KindSend, detail, dst, nbytes)
}

// sendWire enqueues one wire message to dst. The eager (buffered) case is
// a single non-blocking channel operation; only a full buffer falls back
// to the blocking select against the cancel gate.
func (p *Proc) sendWire(dst int, m []float64) {
	ch := p.world.pair(p.rank, dst)
	select {
	case ch <- m:
		return
	default:
	}
	select {
	case ch <- m:
	case <-p.world.cancel:
		panic(cancelPanic{})
	}
}

// outgoing applies the rank's fault state to one outbound payload and
// returns the wire messages to enqueue, wire[:n]: the payload itself,
// nothing (drop, with the buffer recycled), or the payload plus an
// aliasing-safe duplicate. Returning them in an array keeps every send
// path, healthy or not, free of a per-message slice. An injected delay
// sleeps here, before any delivery. Injected faults are recorded in the
// rank's trace so a hung or noisy run can be diagnosed from the event
// stream.
func (p *Proc) outgoing(dst int, msg []float64) (wire [2][]float64, n int) {
	if p.faults == nil {
		return [2][]float64{msg}, 1
	}
	fate, delay := p.faults.fate()
	nbytes := int64(len(msg) * bytesPerElem)
	if delay > 0 {
		p.emit(obs.KindFault, "delay", dst, nbytes)
		time.Sleep(delay)
	}
	switch fate {
	case fateDrop:
		p.emit(obs.KindFault, "drop", dst, nbytes)
		p.release(msg)
		return wire, 0
	case fateDup:
		p.emit(obs.KindFault, "dup", dst, nbytes)
		return [2][]float64{msg, p.clone(msg)}, 2
	default:
		return [2][]float64{msg}, 1
	}
}

// Recv receives the next message from rank src. The returned slice is
// owned by the caller (the runtime never recycles a buffer it has handed
// out), and remains valid indefinitely.
func (p *Proc) Recv(src int) []float64 {
	if src < 0 || src >= p.size {
		panic(fmt.Sprintf("simmpi: Recv from invalid rank %d (size %d)", src, p.size))
	}
	p.checkCancel()
	p.commEvent()
	msg := p.recvWire(src)
	p.countRecv(src, "", int64(len(msg)*bytesPerElem))
	return msg
}

// RecvInto receives the next message from rank src into buf, like an
// MPI_Recv into a user buffer: it copies min(len(buf), message length)
// elements and counts the message exactly as Recv does. The wire buffer
// goes back to this rank's freelist, so a rank that receives and forwards
// a face every step (Kripke's sweep) allocates none after its first.
func (p *Proc) RecvInto(src int, buf []float64) {
	msg := p.Recv(src)
	copy(buf, msg)
	p.release(msg)
}

// recvWire dequeues the next wire message from src. A message already
// buffered is taken without touching the cancel gate; otherwise the rank
// blocks on both. Either way a pending message wins over cancellation, so
// ranks that have all their inputs buffered can still make progress
// decisions; an empty channel in a cancelled run unwinds immediately.
func (p *Proc) recvWire(src int) []float64 {
	ch := p.world.pair(src, p.rank)
	select {
	case msg := <-ch:
		return msg
	default:
	}
	select {
	case msg := <-ch:
		return msg
	case <-p.world.cancel:
		select {
		case msg := <-ch:
			return msg
		default:
			panic(cancelPanic{})
		}
	}
}

// countRecv records one message of nbytes received from src in the
// counters, the call-path profile and the trace.
func (p *Proc) countRecv(src int, detail string, nbytes int64) {
	p.Counters.Add(counters.BytesRecv, nbytes)
	p.Counters.Add(counters.MsgsRecv, 1)
	p.Prof.Add(profile.BytesRecv, float64(nbytes))
	p.emit(obs.KindRecv, detail, src, nbytes)
}

// SendRecv sends sdata to dst and receives a message from src. The
// send-before-receive order cannot deadlock under the runtime's buffered
// (eager) channels as long as the number of undelivered messages between
// any rank pair stays below Options.ChannelDepth; once a pair's buffer is
// full the Send blocks like a rendezvous send, and cyclic SendRecv patterns
// (e.g. a ring exchange repeated more than ChannelDepth times without
// draining) can deadlock exactly as they would on an eager-limited MPI.
// Size ChannelDepth above the largest number of in-flight messages per
// pair, or rely on the run watchdog to cancel and report the cycle.
func (p *Proc) SendRecv(dst int, sdata []float64, src int) []float64 {
	p.Send(dst, sdata)
	return p.Recv(src)
}

// The instrumentation helpers below update the process counters *and*
// attribute the amount to the current call path of the profiler, so that
// computation and memory-access requirements can be modeled per program
// location just like communication (Score-P style).

// AddFlops records floating-point operations.
func (p *Proc) AddFlops(v int64) {
	p.Counters.AddFlops(v)
	p.Prof.Add(profile.Flop, float64(v))
}

// AddLoads records load instructions.
func (p *Proc) AddLoads(v int64) {
	p.Counters.AddLoads(v)
	p.Prof.Add(profile.Loads, float64(v))
}

// AddStores records store instructions.
func (p *Proc) AddStores(v int64) {
	p.Counters.AddStores(v)
	p.Prof.Add(profile.Stores, float64(v))
}

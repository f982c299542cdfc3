package simmpi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"extrareq/internal/obs"
)

// Differential tests: a fault-free world runs Allreduce and Alltoall at a
// rendezvous, and must be indistinguishable from the message path, which
// stays the reference. An active but inert plan, &FaultPlan{KillRank:
// size}, forces the message path: its victim is out of range, so it kills
// no rank, draws "deliver" for every message and perturbs nothing.

// specials are the payload values where IEEE arithmetic is least forgiving.
var specials = []float64{
	math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1060, // subnormals
	math.MaxFloat64, -math.MaxFloat64,
	// NaNs with distinct payloads: a sum of two keeps one operand's bits.
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
}

// payload draws n seeded values, about a third of them specials.
func payload(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(3) == 0 {
			out[i] = specials[rng.Intn(len(specials))]
		} else {
			out[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(60)-30)
		}
	}
	return out
}

// traceRec is the part of a trace event both paths must reproduce; the
// timestamp is the only field left out.
type traceRec struct {
	Kind   obs.Kind
	Detail string
	Peer   int
	Bytes  int64
}

// rankView is everything one rank of a run leaves behind.
type rankView struct {
	outs     [][]float64 // every collective output, in call order
	events   int64
	counters []byte
	profile  []byte
	trace    []traceRec
}

// rendezvousCollectives calls the collectives that meet at a rendezvous in
// a fault-free world, Allreduce with every op and Alltoall, on one rank and
// records each output. m is Allreduce's element count.
func rendezvousCollectives(p *Proc, m int, seed int64, outs *[][]float64) {
	rng := rand.New(rand.NewSource(seed*1000 + int64(p.Rank())))
	keep := func(out []float64) {
		if out != nil {
			out = append([]float64{}, out...)
		}
		*outs = append(*outs, out)
	}
	for _, op := range []Op{Sum, Max, Min} {
		keep(p.Allreduce(payload(rng, m), op))
	}
	chunks := make([][]float64, p.Size())
	for d := range chunks {
		// Lengths differ by direction, and some blocks are empty.
		chunks[d] = payload(rng, (2*p.Rank()+d+int(seed))%3)
	}
	for _, b := range p.Alltoall(chunks) {
		keep(b)
	}
	keep(p.Allreduce(payload(rng, m), Sum))
}

// observe runs rendezvousCollectives on size ranks, on the rendezvous or
// (with messages) the message path, and returns each rank's view.
func observe(t *testing.T, size, m int, seed int64, messages bool) []rankView {
	t.Helper()
	tr := obs.NewTracer(1024)
	opt := &Options{Tracer: tr, Timeout: 30 * time.Second}
	if messages {
		opt.Faults = &FaultPlan{KillRank: size}
	}
	views := make([]rankView, size)
	results, err := RunOpt(size, opt, func(p *Proc) error {
		if (p.faults == nil) == messages {
			return fmt.Errorf("rank %d: faults set = %v, want %v", p.Rank(), p.faults != nil, messages)
		}
		v := &views[p.Rank()]
		rendezvousCollectives(p, m, seed, &v.outs)
		v.events = p.events
		return nil
	})
	if err != nil {
		t.Fatalf("messages=%v: %v", messages, err)
	}
	rt := tr.Runs()[0]
	for r, res := range results {
		v := &views[r]
		var err error
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

// sameBits reports whether two outputs are equal bit for bit, nil-ness
// included.
func sameBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRendezvousMatchesMessagePath compares both paths rank by rank on
// Allreduce and Alltoall, sizes 1-33, Allreduce lengths 0, 1 and 3, and
// Sum, Max and Min: output bits, counters, profiler JSON, the trace's
// (kind, detail, peer, bytes) sequence and the communication-event count.
// Run it with -race -count=10.
func TestRendezvousMatchesMessagePath(t *testing.T) {
	for size := 1; size <= 33; size++ {
		for _, m := range []int{0, 1, 3} {
			size, m := size, m
			t.Run(fmt.Sprintf("p%d_m%d", size, m), func(t *testing.T) {
				seed := int64(size*64 + m)
				want := observe(t, size, m, seed, true)
				got := observe(t, size, m, seed, false)
				for r := range want {
					w, g := want[r], got[r]
					if len(g.outs) != len(w.outs) {
						t.Fatalf("rank %d: %d outputs, want %d", r, len(g.outs), len(w.outs))
					}
					for i := range w.outs {
						if !sameBits(g.outs[i], w.outs[i]) {
							t.Errorf("rank %d output %d = %v, want %v", r, i, g.outs[i], w.outs[i])
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
}

// TestRendezvousCreatesNoChannels: fault-free Allreduce and Alltoall on the
// study grid's largest world touch no rank-pair channel.
func TestRendezvousCreatesNoChannels(t *testing.T) {
	const size = 32
	var world *World
	_, err := Run(size, func(p *Proc) error {
		if p.Rank() == 0 {
			world = p.world
		}
		p.Allreduce([]float64{1, 2}, Sum)
		chunks := make([][]float64, size)
		for d := range chunks {
			chunks[d] = []float64{float64(d)}
		}
		p.Alltoall(chunks)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := createdChannels(world); got != 0 {
		t.Errorf("fault-free collectives created %d rank-pair channels, want 0", got)
	}
}

// TestRendezvousMismatchIsRankError: ranks that enter different
// collectives, or the same one with a different op or length, fail the run
// with a RankError naming them, instead of returning mixed data.
func TestRendezvousMismatchIsRankError(t *testing.T) {
	cases := []struct {
		name  string
		rank1 func(p *Proc)
		want  string
	}{
		{"collective", func(p *Proc) { p.Alltoall([][]float64{{1}, {2}}) }, "rank 1 entered MPI_Alltoall(op 0, 0 elements)"},
		{"op", func(p *Proc) { p.Allreduce([]float64{1}, Max) }, "rank 1 entered MPI_Allreduce(op 1, 1 elements)"},
		{"length", func(p *Proc) { p.Allreduce([]float64{1, 2}, Sum) }, "rank 1 entered MPI_Allreduce(op 0, 2 elements)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			results, err := RunOpt(2, &Options{Timeout: 10 * time.Second}, func(p *Proc) error {
				if p.Rank() == 0 {
					p.Allreduce([]float64{1}, Sum)
				} else {
					c.rank1(p)
				}
				return nil
			})
			var re *RankError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want a RankError", err)
			}
			for _, want := range []string{"rank 0 entered MPI_Allreduce(op 0, 1 elements)", c.want} {
				if !strings.Contains(re.Reason, want) {
					t.Errorf("reason %q does not contain %q", re.Reason, want)
				}
			}
			for _, r := range results {
				if r.Err == nil {
					t.Errorf("rank %d returned a result from a mismatched collective", r.Rank)
				}
			}
		})
	}
}

// TestCancelledCollectiveBothPaths: with one rank absent, the others block
// inside Allreduce or Alltoall, parked at the rendezvous in a fault-free
// world and in Recv under the inert plan, and the watchdog unwinds them
// into ErrCancelled on both paths.
func TestCancelledCollectiveBothPaths(t *testing.T) {
	const size = 4
	collectives := []struct {
		name string
		body func(p *Proc)
	}{
		{"Allreduce", func(p *Proc) { p.Allreduce([]float64{1}, Sum) }},
		{"Alltoall", func(p *Proc) { p.Alltoall(make([][]float64, size)) }},
	}
	for _, c := range collectives {
		for _, plan := range []*FaultPlan{nil, {KillRank: size}} {
			t.Run(fmt.Sprintf("%s/messages=%v", c.name, plan != nil), func(t *testing.T) {
				results, err := RunOpt(size, &Options{Timeout: 50 * time.Millisecond, Faults: plan}, func(p *Proc) error {
					if p.Rank() == 0 {
						p.Recv(0) // never joins: the collective cannot complete
						return nil
					}
					c.body(p)
					return nil
				})
				if !errors.Is(err, ErrTimeout) {
					t.Fatalf("err = %v, want ErrTimeout", err)
				}
				for r := 1; r < size; r++ {
					if !errors.Is(results[r].Err, ErrCancelled) {
						t.Errorf("rank %d Err = %v, want ErrCancelled", r, results[r].Err)
					}
				}
			})
		}
	}
}

// TestOpApplyShortOperand: an operand shorter than the accumulator panics,
// even when its spare capacity (as a pooled message buffer has) could hold
// the missing elements.
func TestOpApplyShortOperand(t *testing.T) {
	for _, op := range []Op{Sum, Max, Min} {
		src := make([]float64, 2, 8)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("op %d: a 2-element operand on a 4-element accumulator did not panic", op)
				}
			}()
			op.apply(make([]float64, 4), src)
		}()
	}
}

// TestAlltoallBlocksDoNotAlias: the blocks a fault-free Alltoall returns
// share one allocation, so appending to one must not overwrite the next.
func TestAlltoallBlocksDoNotAlias(t *testing.T) {
	const size = 3
	_, err := Run(size, func(p *Proc) error {
		chunks := make([][]float64, size)
		for d := range chunks {
			chunks[d] = []float64{float64(10*p.Rank() + d)}
		}
		out := p.Alltoall(chunks)
		out[0] = append(out[0], -1)
		for q := 1; q < size; q++ {
			if want := float64(10*q + p.Rank()); len(out[q]) != 1 || out[q][0] != want {
				return fmt.Errorf("rank %d block %d = %v after appending to block 0, want [%v]", p.Rank(), q, out[q], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

package apps

import (
	"extrareq/internal/counters"
	"extrareq/internal/simmpi"
	"extrareq/internal/trace"
)

// Kripke is the proxy for LLNL's Kripke, a 3D Sn particle-transport code
// with an asynchronous MPI-based parallel sweep. The proxy decomposes the
// domain into a 1D pipeline of p ranks and sweeps it in both directions
// (two octants), zone by zone, for a configurable number of energy groups
// and directions.
//
// Requirements behaviour (matching the dominant Table II terms):
//
//	#Bytes used        ∝ n          (angular flux, scalar flux, cross sections)
//	#FLOP              ∝ n          (zones × groups × directions per sweep)
//	#Bytes sent & recv ∝ n          (upstream/downstream face of the sweep)
//	#Loads & stores    ∝ n + n·p    (zone kernel + per-chunk scan of the
//	                                 per-rank sweep-readiness schedule; the
//	                                 n·p term is the paper's ⚠ finding)
//	Stack distance     constant     (streaming zone loop)
type Kripke struct {
	// Groups and Directions configure the angular/energy resolution.
	Groups, Directions int
}

// NewKripke returns the proxy with the default 8 groups × 8 directions.
func NewKripke() *Kripke { return &Kripke{Groups: 8, Directions: 8} }

// Name implements App.
func (k *Kripke) Name() string { return "Kripke" }

// scanChunk is the zone-chunk granularity at which a rank re-scans the
// sweep-readiness flags of every rank; it sets the coefficient of the n·p
// loads term.
const kripkeScanChunk = 1

// kripkeFlags is the length of the sweep-readiness ring buffer.
const kripkeFlags = 64

// Run implements App.
func (k *Kripke) Run(cfg Config) ([]simmpi.Result, error) {
	if err := cfg.validate(2); err != nil {
		return nil, err
	}
	g, d := k.Groups, k.Directions
	jit := jitter(cfg, "kripke", 0.02)
	return simmpi.RunOpt(cfg.Procs, cfg.runOptions(), func(p *simmpi.Proc) error {
		n := cfg.N

		// Allocation: angular flux psi[n·g], scalar flux phi[n·g],
		// cross sections sigma[n], face buffer (n/4). The sweep-readiness
		// flags live in a fixed-size ring buffer (the schedule scan still
		// costs p loads per zone, but the resident memory stays O(1)).
		// psi and flags store only their sampled elements; psi keeps the
		// sampled(g) of each zone's g-group chunk, since the sweep touches
		// one zone (kripkeScanChunk) at a time.
		gs := sampled(g)
		psi := make([]float64, n*gs)
		sigma := make([]float64, n)
		flags := make([]float64, sampled(kripkeFlags))
		face := make([]float64, max(n/4, 1))
		p.Counters.Alloc(int64(8 * (2*n*g + n + kripkeFlags + len(face))))

		for step := 0; step < cfg.Steps; step++ {
			for octant := 0; octant < 2; octant++ {
				p.Prof.InRegion("sweep", func() {
					up, down := p.Rank()-1, p.Rank()+1
					if octant == 1 {
						up, down = p.Rank()+1, p.Rank()-1
					}
					// Receive the upstream face (pipeline dependency).
					if up >= 0 && up < p.Size() {
						p.Prof.InRegion("MPI_Recv", func() {
							p.RecvInto(up, face)
						})
					}
					// Zone sweep.
					for z0 := 0; z0 < n; z0 += kripkeScanChunk {
						// Scan the per-rank readiness schedule: the n·p
						// loads term of Table II.
						touch(flags, func(v float64) float64 { return v + 1 })
						p.AddLoads(int64(p.Size()))

						hi := min(z0+kripkeScanChunk, n)
						chunk := psi[z0*gs : hi*gs]
						touch(chunk, func(v float64) float64 {
							return 0.99*v + 0.01*sigma[z0%n]
						})
						zones := int64(hi - z0)
						// Per (zone, group, direction): ~10 flops,
						// 6 loads, 2 stores.
						work := zones * int64(g) * int64(d)
						p.AddFlops(int64(float64(10*work) * jit))
						p.AddLoads(6 * work)
						p.AddStores(2 * work)
					}
					// Send the downstream face.
					if down >= 0 && down < p.Size() {
						p.Prof.InRegion("MPI_Send", func() {
							p.Send(down, face)
						})
					}
				})
			}
		}
		// Keep the arrays alive to the end of the run (footprint is the
		// high-water mark of resident memory).
		_ = psi[0] + sigma[0]
		return nil
	})
}

// LocalityProbe implements App: the sweep's inner loop accesses the zone's
// group vector repeatedly and the zone's cross section once per group —
// a constant-stack-distance pattern regardless of n.
func (k *Kripke) LocalityProbe(n int, rec trace.Recorder) {
	const psiBase, sigmaBase = 1 << 32, 2 << 32
	for z := 0; z < n; z++ {
		for gi := 0; gi < k.Groups; gi++ {
			rec.Record(psiBase+uint64(z*k.Groups+gi)*8, "kripke/psi")
			rec.Record(sigmaBase+uint64(z)*8, "kripke/sigma")
		}
	}
}

var _ App = (*Kripke)(nil)

// meanCounters averages a counter over the per-rank results.
func meanCounters(results []simmpi.Result, e counters.Event) float64 {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range results {
		sum += float64(r.Counters.Value(e))
	}
	return sum / float64(len(results))
}

package apps

import (
	"math"

	"extrareq/internal/simmpi"
	"extrareq/internal/trace"
)

// MILC is the proxy for MILC/su3_rmd: lattice QCD on a four-dimensional
// lattice, dominated by a conjugate-gradient solve of the staggered Dirac
// operator. The proxy runs trajectories of (a) a halo exchange of the local
// lattice surface, (b) a local relaxation pre-smoother whose iteration
// count grows with log p, and (c) a fixed-iteration CG solve with two
// global allreduces per iteration and a parameter broadcast per trajectory.
//
// Requirements behaviour (dominant Table II terms):
//
//	#Bytes used        ∝ n                        (gauge links + fermion fields)
//	#FLOP              ∝ n + n·log p              (CG + pre-smoother)
//	#Bytes sent & recv ∝ Allreduce(p) + Bcast(p) + n
//	#Loads & stores    ∝ const + n·log n + p^1.5  (lookup tables, neighbor
//	                                              search, pairwise schedule)
//	Stack distance     ∝ n                        (4D neighbor strides span
//	                                              the local lattice)
type MILC struct{}

// NewMILC returns the proxy.
func NewMILC() *MILC { return &MILC{} }

// Name implements App.
func (m *MILC) Name() string { return "MILC" }

// milcSetupLoads is the constant loads term: initialization of the
// precomputed SU(3) phase tables, independent of p and n.
const milcSetupLoads = 1 << 22

// Run implements App.
func (m *MILC) Run(cfg Config) ([]simmpi.Result, error) {
	if err := cfg.validate(2); err != nil {
		return nil, err
	}
	jit := jitter(cfg, "milc", 0.02)
	return simmpi.RunOpt(cfg.Procs, cfg.runOptions(), func(p *simmpi.Proc) error {
		n := cfg.N

		// Allocation: 4-direction gauge links (2 words each) + 5 fermion
		// vectors; the links store only their sampled elements.
		links := make([]float64, sampled(8*n))
		p.Counters.Alloc(int64(8 * 8 * n))
		p.Counters.Alloc(int64(8 * 5 * n))

		// Constant setup work (phase tables) and the pairwise gather/
		// scatter schedule, whose construction scans p·sqrt(p) candidate
		// pairings.
		p.Prof.InRegion("setup", func() {
			p.AddLoads(milcSetupLoads)
			sched := int64(2 * float64(p.Size()) * math.Sqrt(float64(p.Size())))
			p.AddLoads(sched)
		})

		relaxIters := int(math.Round((1 + 2*log2i(p.Size())) * jit))
		// The CG solve runs to a fixed tolerance whose iteration count is
		// stable across runs; per-iteration arithmetic carries the jitter.
		cgIters := 25
		halo := make([]float64, max(n/16, 1))
		cart, err := p.NewCart([]int{p.Size()}, []bool{true})
		if err != nil {
			return err
		}

		for step := 0; step < cfg.Steps; step++ {
			// Trajectory parameters from rank 0.
			params := make([]float64, 32)
			p.Bcast(0, params)

			p.Prof.InRegion("halo", func() {
				if p.Size() > 1 {
					for dir := 0; dir < 4; dir++ { // 4D lattice: 4 exchange directions
						cart.Exchange(0, 1, halo, nil)
						cart.Exchange(0, -1, halo, nil)
					}
				}
			})

			p.Prof.InRegion("relax", func() {
				for it := 0; it < relaxIters; it++ {
					touch(links, func(v float64) float64 { return 0.9*v + 0.1 })
					p.AddFlops(int64(float64(32*n) * jit))
					p.AddLoads(int64(4 * n))
				}
			})

			p.Prof.InRegion("cg", func() {
				logn := log2i(n)
				for it := 0; it < cgIters; it++ {
					touch(links, func(v float64) float64 { return v*0.999 + 0.001 })
					// Staggered D-slash: ~34 flops/site; neighbor-table
					// binary search costs log2(n) loads/site.
					p.AddFlops(int64(float64(34*n) * jit))
					p.AddLoads(int64(float64(n) * (8 + logn)))
					p.AddStores(int64(2 * n))
					// Two dot-product allreduces per iteration.
					p.Allreduce([]float64{1, 2}, simmpi.Sum)
					p.Allreduce([]float64{3, 4}, simmpi.Sum)
				}
			})
		}
		return nil
	})
}

// LocalityProbe implements App: 4D neighbor strides span a constant
// fraction of the local lattice, so the stack distance between repeated
// accesses to a site grows linearly with n.
func (m *MILC) LocalityProbe(n int, rec trace.Recorder) {
	const base = 5 << 32
	if n < 4 {
		n = 4
	}
	stride := n / 4
	for sweep := 0; sweep < 3; sweep++ {
		for i := 0; i < n; i++ {
			rec.Record(base+uint64(i)*8, "milc/site")
			rec.Record(base+uint64((i+stride)%n)*8, "milc/neighbor")
		}
	}
}

var _ App = (*MILC)(nil)

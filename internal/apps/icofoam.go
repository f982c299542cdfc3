package apps

import (
	"math"

	"extrareq/internal/simmpi"
	"extrareq/internal/trace"
)

// IcoFoam is the proxy for OpenFOAM's icoFoam solver on the lid-driven
// cavity: incompressible Newtonian flow, dominated by an unpreconditioned
// conjugate-gradient pressure solve whose iteration count grows with the
// square root of the *global* problem size (the classic Poisson condition
// number growth) — which couples p and n into every requirement and makes
// the code the paper's negative example.
//
// Requirements behaviour (dominant Table II terms):
//
//	#Bytes used        ∝ n + p·log p            (fields + global comm maps) ⚠
//	#FLOP              ∝ n^1.5·p^0.5            (CG iterations × n)         ⚠
//	#Bytes sent & recv ∝ n^0.5·p^0.5·log p + n·p^0.5 (dot-product allreduces
//	                                           and halo per iteration)      ⚠
//	#Loads & stores    ∝ n^1.5·p^0.5            (CG sweeps)                  ⚠
//	Stack distance     constant                 (banded matrix traversal)
type IcoFoam struct{}

// NewIcoFoam returns the proxy.
func NewIcoFoam() *IcoFoam { return &IcoFoam{} }

// Name implements App.
func (f *IcoFoam) Name() string { return "icoFoam" }

// Run implements App.
func (f *IcoFoam) Run(cfg Config) ([]simmpi.Result, error) {
	if err := cfg.validate(2); err != nil {
		return nil, err
	}
	jit := jitter(cfg, "icofoam", 0.02)
	return simmpi.RunOpt(cfg.Procs, cfg.runOptions(), func(p *simmpi.Proc) error {
		n := cfg.N

		// Allocation: 10 field arrays plus the replicated global
		// communication maps that grow with p·log p; the swept pressure
		// field stores only its sampled elements.
		pressure := make([]float64, sampled(n))
		p.Counters.Alloc(int64(8 * 10 * n))
		p.Counters.Alloc(int64(32 * float64(p.Size()) * (1 + log2i(p.Size()))))

		// CG iterations ∝ sqrt(global problem size) = sqrt(n·p).
		iters := int(math.Max(1, math.Round(0.4*math.Sqrt(float64(n)*float64(p.Size()))*jit)))
		haloLen := max(int(math.Sqrt(float64(n))), 1)
		halo := make([]float64, haloLen)
		cart, err := p.NewCart([]int{p.Size()}, []bool{true})
		if err != nil {
			return err
		}

		for step := 0; step < cfg.Steps; step++ {
			p.Prof.InRegion("piso", func() {
				p.Prof.InRegion("pressure_cg", func() {
					for it := 0; it < iters; it++ {
						touch(pressure, func(v float64) float64 { return 0.99*v + 0.01 })
						p.AddFlops(int64(float64(6*n) * jit))
						p.AddLoads(int64(8 * n))
						p.AddStores(int64(2 * n))
						// Two dot products per iteration.
						p.Allreduce([]float64{1}, simmpi.Sum)
						p.Allreduce([]float64{2}, simmpi.Sum)
						// Halo exchange of the boundary row.
						if p.Size() > 1 {
							cart.Exchange(0, 1, halo, nil)
							cart.Exchange(0, -1, halo, nil)
						}
					}
				})
			})
		}
		return nil
	})
}

// LocalityProbe implements App: the pentadiagonal matrix traversal accesses
// a constant-width band — constant stack distance.
func (f *IcoFoam) LocalityProbe(n int, rec trace.Recorder) {
	const base = 9 << 32
	width := 5
	for i := width; i+width < n; i++ {
		for w := -width; w <= width; w += width {
			rec.Record(base+uint64(i+w)*8, "icofoam/band")
		}
	}
}

var _ App = (*IcoFoam)(nil)

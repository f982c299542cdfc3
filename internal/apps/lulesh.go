package apps

import (
	"math"

	"extrareq/internal/simmpi"
	"extrareq/internal/trace"
)

// LULESH is the proxy for the DOE hydrodynamics proxy app: simplified 3D
// Lagrangian hydro on an unstructured mesh. The proxy keeps a
// multi-resolution gather hierarchy over the n-element mesh (log2(n) index
// tables of size n, which reproduces the measured n·log n footprint),
// exchanges ghost faces with its ring neighbours, and runs an iteration
// count that grows with the process count (the constraint propagation that
// couples process count into LULESH's computation in the paper's models).
//
// Requirements behaviour (dominant Table II terms):
//
//	#Bytes used        ∝ n·log n                 (hierarchy tables)
//	#FLOP              ∝ n·log n · p^0.25·log p  (hierarchy sweep × iters) ⚠
//	#Bytes sent & recv ∝ n · p^0.25·log p        (ghost faces × iters)     ⚠
//	#Loads & stores    ∝ n·log n · log p         (gather phase only; the
//	                                             compute sub-iterations are
//	                                             register-resident)
//	Stack distance     constant                  (stencil traversal)
type LULESH struct{}

// NewLULESH returns the proxy.
func NewLULESH() *LULESH { return &LULESH{} }

// Name implements App.
func (l *LULESH) Name() string { return "LULESH" }

// Run implements App.
func (l *LULESH) Run(cfg Config) ([]simmpi.Result, error) {
	if err := cfg.validate(1); err != nil {
		return nil, err
	}
	jit := jitter(cfg, "lulesh", 0.02)
	return simmpi.RunOpt(cfg.Procs, cfg.runOptions(), func(p *simmpi.Proc) error {
		n := cfg.N
		levels := int(math.Max(1, math.Ceil(log2i(n))))

		// Allocation: 8 field arrays of n plus one gather table per level;
		// the swept field stores only its sampled elements.
		fields := make([]float64, sampled(n))
		p.Counters.Alloc(int64(8 * 8 * n))
		p.Counters.Alloc(int64(8 * n * levels))

		// Gather iterations grow with log p; compute sub-iterations add a
		// p^0.25 factor on top (Newton sub-cycling on register-resident
		// state).
		gatherIters := int(math.Round((2 + 2*log2i(p.Size())) * jit))
		subIters := int(math.Max(1, math.Round(2*math.Pow(float64(p.Size()), 0.25))))

		ghost := make([]float64, max(n/64, 1))
		cart, err := p.NewCart([]int{p.Size()}, []bool{true})
		if err != nil {
			return err
		}

		for step := 0; step < cfg.Steps; step++ {
			for it := 0; it < gatherIters; it++ {
				p.Prof.InRegion("gather", func() {
					// Hierarchy sweep: one pass per level over the mesh.
					for lvl := 0; lvl < levels; lvl++ {
						touch(fields, func(v float64) float64 { return 0.5*v + 1 })
						p.AddLoads(int64(3 * n))
						p.AddStores(int64(n))
					}
				})
				p.Prof.InRegion("compute", func() {
					for s := 0; s < subIters; s++ {
						touch(fields, func(v float64) float64 { return v*0.999 + 0.001 })
						p.AddFlops(int64(float64(4*n*levels) * jit))
						// Ghost exchange per sub-cycle: total volume
						// ∝ n·p^0.25·log p.
						if p.Size() > 1 {
							cart.Exchange(0, 1, ghost, nil)
							cart.Exchange(0, -1, ghost, nil)
						}
					}
				})
			}
		}
		return nil
	})
}

// LocalityProbe implements App: the hydro stencil touches each element and
// its immediate neighbours — constant stack distance.
func (l *LULESH) LocalityProbe(n int, rec trace.Recorder) {
	const base = 3 << 32
	for i := 1; i+1 < n; i++ {
		rec.Record(base+uint64(i-1)*8, "lulesh/stencil")
		rec.Record(base+uint64(i)*8, "lulesh/stencil")
		rec.Record(base+uint64(i+1)*8, "lulesh/stencil")
	}
}

var _ App = (*LULESH)(nil)

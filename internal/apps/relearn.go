package apps

import (
	"math"

	"extrareq/internal/simmpi"
	"extrareq/internal/trace"
)

// Relearn is the proxy for the structural-plasticity brain simulation: n
// neurons per process form and delete synapses, finding partners through a
// distributed spatial tree. The proxy keeps a column-bucket spatial index
// over the sqrt(n)×sqrt(n) local domain (whose bucket storage dominates the
// footprint, reproducing the paper's empirical n^0.5 memory model), runs a
// partner search whose per-neuron cost is the product of the remote tree
// depth (log p) and the local tree depth (log n), and communicates via an
// activity allreduce, a small alltoall of migration counts, and direct
// synapse messages.
//
// Requirements behaviour (dominant Table II terms):
//
//	#Bytes used        ∝ n^0.5                       (column buckets)
//	#FLOP              ∝ n·log n·log p + p           (partner search + scan)
//	#Bytes sent & recv ∝ Allreduce(p) + Alltoall(p) + n
//	#Loads & stores    ∝ n·log n + p·log p           (search + schedule sort)
//	Stack distance     constant                      (bucket-local access)
type Relearn struct{}

// NewRelearn returns the proxy.
func NewRelearn() *Relearn { return &Relearn{} }

// Name implements App.
func (r *Relearn) Name() string { return "Relearn" }

// relearnBucketBytes is the per-bucket storage of the spatial index.
const relearnBucketBytes = 16384

// Run implements App.
func (r *Relearn) Run(cfg Config) ([]simmpi.Result, error) {
	if err := cfg.validate(2); err != nil {
		return nil, err
	}
	jit := jitter(cfg, "relearn", 0.02)
	return simmpi.RunOpt(cfg.Procs, cfg.runOptions(), func(p *simmpi.Proc) error {
		n := cfg.N

		// Allocation: column buckets dominate; neuron state is compact.
		buckets := int(math.Ceil(math.Sqrt(float64(n))))
		p.Counters.Alloc(int64(buckets * relearnBucketBytes))
		p.Counters.Alloc(int64(16 * n))
		state := make([]float64, sampled(n))

		logn, logp := log2i(n), log2i(p.Size())
		activity := make([]float64, 512)
		// Migration counts, the same every step.
		chunks := make([][]float64, p.Size())
		for d := range chunks {
			chunks[d] = []float64{float64(d), 1}
		}
		syn := make([]float64, max(n/64, 1))
		cart, err := p.NewCart([]int{p.Size()}, []bool{true})
		if err != nil {
			return err
		}
		for step := 0; step < cfg.Steps; step++ {
			p.Prof.InRegion("plasticity", func() {
				// Partner search: remote tree levels × local tree depth.
				touch(state, func(v float64) float64 { return 0.95*v + 0.05 })
				cost := float64(n) * (1 + logn) * (1 + logp)
				p.AddFlops(int64(2 * cost * jit))
				p.AddLoads(int64(3 * float64(n) * (1 + logn)))
				p.AddStores(int64(n))
				// Scan of the per-rank density summaries.
				p.AddFlops(int64(4 * p.Size()))
			})

			p.Prof.InRegion("exchange", func() {
				// Global activity reduction (fixed-size vector).
				p.Allreduce(activity, simmpi.Sum)
				// Migration counts: tiny personalized exchange.
				p.Alltoall(chunks)
				// Direct synapse updates to the ring neighbour.
				if p.Size() > 1 {
					cart.Exchange(0, 1, syn, nil)
				}
				// Schedule sort of outgoing updates: p·log p loads.
				p.AddLoads(int64(64 * float64(p.Size()) * (1 + logp)))
			})
		}
		return nil
	})
}

// LocalityProbe implements App: neuron updates stay within their column
// bucket, so the stack distance is a small constant independent of n.
func (r *Relearn) LocalityProbe(n int, rec trace.Recorder) {
	const base = 7 << 32
	bucketSize := 16
	for i := 0; i < n; i++ {
		b := uint64(i / bucketSize * bucketSize)
		rec.Record(base+b*8, "relearn/bucket")
		rec.Record(base+uint64(i)*8, "relearn/neuron")
	}
}

var _ App = (*Relearn)(nil)

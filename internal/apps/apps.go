// Package apps contains the five synthetic proxy applications of the
// paper's case study (§III): Kripke, LULESH, MILC, Relearn, and icoFoam.
//
// Each proxy executes the same algorithmic structure as the original code
// (sweep transport, Lagrangian hydro with ghost exchange, 4D-lattice
// conjugate gradient, structural-plasticity octree search, and a PISO
// pressure solver, respectively) on the simulated MPI runtime, with
// instrumented kernels that update the per-process counters of package
// counters. The per-process counts follow the same dominant growth terms in
// p and n that the paper reports in Table II; absolute coefficients differ
// from the paper because the substrate is a simulator, not JUQUEEN (see
// EXPERIMENTS.md).
//
// To keep simulation time bounded, compute kernels execute representative
// arithmetic on one element in workSampling of their data while the
// counters record the full semantic operation counts. Requirements models
// are built from the counters, which is exactly the quantity the paper
// measures. A kernel's array therefore holds only the elements its
// arithmetic visits: a logical array of length L is stored as sampled(L)
// elements, every one of which touch visits. The footprint the counters
// record (Counters.Alloc) stays that of the logical arrays, and every
// kernel evaluates its arithmetic as often, on the same values, as it
// would visiting every workSampling-th element of the full array.
package apps

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"extrareq/internal/obs"
	"extrareq/internal/simmpi"
	"extrareq/internal/trace"
)

// Config selects one measurement configuration of an application.
type Config struct {
	// Procs is the number of MPI processes p.
	Procs int
	// N is the problem size per process (zones, cells, lattice sites, or
	// neurons, depending on the app).
	N int
	// Steps is the number of outer timesteps; 0 selects the app default.
	Steps int
	// Seed drives the deterministic measurement jitter (convergence
	// variation); runs with the same Config are bit-reproducible.
	Seed int64
	// Faults optionally injects deterministic failures (rank kills, message
	// drops/delays/duplicates, counter perturbation) into the simulated run;
	// nil measures a healthy system. See simmpi.FaultPlan.
	Faults *simmpi.FaultPlan
	// Timeout overrides the runtime's run watchdog; 0 keeps the simmpi
	// default. Resilient campaign runners set a short timeout so runs hung
	// by injected message loss fail fast instead of stalling the campaign.
	Timeout time.Duration
	// Tracer records the run's per-rank communication/fault/cancel events
	// into bounded ring buffers; nil disables tracing. See obs.Tracer.
	Tracer *obs.Tracer
	// TraceTag labels the run's trace (ignored without a Tracer).
	TraceTag string
}

// runOptions maps the config's runtime knobs onto simmpi options (nil when
// every knob is at its default, preserving the zero-allocation fast path).
func (c Config) runOptions() *simmpi.Options {
	if c.Faults == nil && c.Timeout == 0 && c.Tracer == nil {
		return nil
	}
	return &simmpi.Options{Faults: c.Faults, Timeout: c.Timeout, Tracer: c.Tracer, TraceTag: c.TraceTag}
}

func (c Config) String() string {
	return fmt.Sprintf("p=%d n=%d steps=%d seed=%d", c.Procs, c.N, c.Steps, c.Seed)
}

// validate normalizes and checks a config.
func (c *Config) validate(defaultSteps int) error {
	if c.Procs < 1 {
		return fmt.Errorf("apps: invalid process count %d", c.Procs)
	}
	if c.N < 1 {
		return fmt.Errorf("apps: invalid problem size %d", c.N)
	}
	if c.Steps == 0 {
		c.Steps = defaultSteps
	}
	if c.Steps < 0 {
		return fmt.Errorf("apps: invalid step count %d", c.Steps)
	}
	return nil
}

// App is a runnable proxy application.
type App interface {
	// Name returns the application name as used in the paper.
	Name() string
	// Run executes the app at the given configuration and returns the
	// per-rank results (counters and profiles).
	Run(cfg Config) ([]simmpi.Result, error)
	// LocalityProbe replays the app's characteristic inner-loop memory
	// access pattern at per-process problem size n into the recorder, for
	// the Threadspotter-substitute locality analysis. The probe is
	// single-process (the paper measures locality per process).
	LocalityProbe(n int, rec trace.Recorder)
}

// All returns the five case-study applications in the paper's order.
func All() []App {
	return []App{NewKripke(), NewLULESH(), NewMILC(), NewRelearn(), NewIcoFoam()}
}

// ByName returns the named app (case-sensitive, as in the paper).
func ByName(name string) (App, bool) {
	for _, a := range All() {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}

// Names lists the app names in order.
func Names() []string {
	var out []string
	for _, a := range All() {
		out = append(out, a.Name())
	}
	sort.Strings(out)
	return out
}

// workSampling is the stride at which compute kernels execute real
// arithmetic; counters always record the full semantic counts.
const workSampling = 8

// sampled returns how many elements store a logical array of length l:
// the ceil(l/workSampling) that a strided pass over it would visit.
func sampled(l int) int { return (l + workSampling - 1) / workSampling }

// jitter returns a deterministic multiplicative noise factor ~ N(1, sigma)
// for the given config and stream label, emulating run-to-run convergence
// variation. The factor is clamped to [1-3sigma, 1+3sigma].
func jitter(cfg Config, stream string, sigma float64) float64 {
	h := int64(1469598103934665603)
	for _, b := range []byte(stream) {
		h ^= int64(b)
		h *= 1099511628211
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ h ^ int64(cfg.Procs)<<32 ^ int64(cfg.N)))
	f := 1 + sigma*rng.NormFloat64()
	lo, hi := 1-3*sigma, 1+3*sigma
	return math.Min(math.Max(f, lo), hi)
}

// log2i returns log2(x) for x >= 1 as a float (0 for x < 2).
func log2i(x int) float64 {
	if x < 2 {
		return 0
	}
	return math.Log2(float64(x))
}

// touch performs representative arithmetic on every element of data, the
// sampled storage of a logical array (see sampled), and returns a value
// that depends on every element, preventing dead-code elimination.
func touch(data []float64, f func(v float64) float64) float64 {
	acc := 0.0
	for i, v := range data {
		data[i] = f(v)
		acc += data[i]
	}
	if countTouches && touchHook != nil {
		touchHook(len(data), acc)
	}
	return acc
}

// touchHook, when set in a build with -tags touchpin (countTouches), sees
// every touch call: how many times it evaluated f and the sum it returns.
// TestTouchEvaluationsPinned sets it to pin the arithmetic each proxy
// performs. Other builds compile the check away, so touch stays small
// enough to inline and its f calls inline into the kernels.
var touchHook func(evals int, acc float64)

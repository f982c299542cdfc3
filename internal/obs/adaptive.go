package obs

// Adaptive-campaign instruments. The adaptive engine (internal/adaptive)
// replaces fixed measurement grids with model-driven refinement; operators
// need to see how hard it is working (rounds, batches), how much it is
// saving (points measured vs. skipped), and why runs stop (convergence vs.
// budget exhaustion). Same shape as the other bundles: resolve once, and
// hold nil instruments without a registry.

// Metric names of the adaptive-campaign instruments.
const (
	// MetricAdaptiveRounds counts fit-score-measure refinement rounds
	// (the seed fit counts as round one).
	MetricAdaptiveRounds = "adaptive_rounds"
	// MetricAdaptivePointsMeasured counts configurations executed by
	// adaptive runs (cache misses among the selected points).
	MetricAdaptivePointsMeasured = "adaptive_points_measured"
	// MetricAdaptivePointsReused counts selected configurations served
	// from the point cache instead of being executed.
	MetricAdaptivePointsReused = "adaptive_points_reused"
	// MetricAdaptivePointsSaved counts full-grid configurations adaptive
	// runs never selected at all — the measurement budget the refinement
	// loop saved over the fixed grid.
	MetricAdaptivePointsSaved = "adaptive_points_saved"
	// MetricAdaptiveConverged counts runs that stopped because the winning
	// model strings were stable and cross-validation stopped improving.
	MetricAdaptiveConverged = "adaptive_converged"
	// MetricAdaptiveBudgetStop counts runs that stopped on the hard point
	// budget (or candidate exhaustion) before the models converged.
	MetricAdaptiveBudgetStop = "adaptive_budget_stop"
	// MetricAdaptiveCacheHit counts adaptive runs answered entirely from
	// their own campaign-level cache entry (seed spec + adaptive options).
	MetricAdaptiveCacheHit = "adaptive_cache_hit"
)

// Adaptive bundles the adaptive-campaign instruments, resolved once by
// NewAdaptive; each field updates the MetricAdaptive* metric of the same
// name.
type Adaptive struct {
	Rounds, PointsMeasured, PointsReused, PointsSaved *Counter
	Converged, BudgetStop, CacheHit                   *Counter
}

// NewAdaptive resolves the adaptive instruments in reg; from a nil reg
// every instrument is nil and every update a no-op.
func NewAdaptive(reg *Registry) *Adaptive {
	return &Adaptive{
		Rounds:         reg.Counter(MetricAdaptiveRounds),
		PointsMeasured: reg.Counter(MetricAdaptivePointsMeasured),
		PointsReused:   reg.Counter(MetricAdaptivePointsReused),
		PointsSaved:    reg.Counter(MetricAdaptivePointsSaved),
		Converged:      reg.Counter(MetricAdaptiveConverged),
		BudgetStop:     reg.Counter(MetricAdaptiveBudgetStop),
		CacheHit:       reg.Counter(MetricAdaptiveCacheHit),
	}
}

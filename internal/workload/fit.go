package workload

import (
	"fmt"

	"extrareq/internal/codesign"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/obs"
	"extrareq/internal/pmnf"
	"extrareq/internal/stats"
)

// FitResult bundles the fitted requirements models of one application with
// their quality statistics.
type FitResult struct {
	App codesign.App
	// Info holds the model-generator diagnostics per metric.
	Info map[metrics.Metric]*modeling.ModelInfo
}

// Interval computes a bootstrap prediction interval for one metric's model
// at (p, n), using the campaign the models were fitted from.
func (f *FitResult) Interval(c *Campaign, m metrics.Metric, p, n, conf float64) (modeling.Interval, error) {
	info, ok := f.Info[m]
	if !ok {
		return modeling.Interval{}, fmt.Errorf("workload: no fitted %s model", m)
	}
	return modeling.PredictionInterval(info, c.Measurements(m), []float64{p, n}, conf, 0, 1)
}

// RelErrors concatenates the per-measurement relative errors of every
// fitted model — the data behind the paper's Figure 3.
func (f *FitResult) RelErrors() []float64 {
	var out []float64
	for _, m := range metrics.All() {
		if info, ok := f.Info[m]; ok {
			out = append(out, info.RelErrors...)
		}
	}
	return out
}

// modelParams is the canonical parameter order of requirement models.
var modelParams = []string{"p", "n"}

// fitTask builds the model-generator job of one metric of a campaign:
// communication models get the collective basis functions (Allreduce(p)
// etc.), and the stack-distance metric is aggregated with the median per
// the paper's locality methodology.
func fitTask(c *Campaign, m metrics.Metric, opts *modeling.Options) (modeling.FitTask, error) {
	ms := c.Measurements(m)
	if len(ms) == 0 {
		return modeling.FitTask{}, fmt.Errorf("workload: campaign for %s has no %s measurements", c.App, m)
	}
	o := cloneOptions(opts)
	agg := modeling.AggMean
	switch m {
	case metrics.CommBytes:
		o.Collectives = map[string]bool{"p": true}
	case metrics.StackDistance:
		agg = modeling.AggMedian
	}
	return modeling.FitTask{
		Key:    c.App + "/" + m.String(),
		Params: modelParams,
		Ms:     ms,
		Agg:    agg,
		Opts:   o,
	}, nil
}

// assembleFit converts the per-metric outcomes of one campaign (in
// metrics.All order) into a FitResult, surfacing the first failed metric.
func assembleFit(c *Campaign, outs []modeling.FitOutcome) (*FitResult, error) {
	res := &FitResult{
		App:  codesign.App{Name: c.App, Models: map[metrics.Metric]*pmnf.Model{}},
		Info: map[metrics.Metric]*modeling.ModelInfo{},
	}
	for i, m := range metrics.All() {
		if outs[i].Err != nil {
			return nil, fmt.Errorf("workload: fitting %s %s: %w", c.App, m, outs[i].Err)
		}
		res.App.Models[m] = outs[i].Info.Model
		res.Info[m] = outs[i].Info
	}
	return res, nil
}

// FitAllObserved generates the five Table II requirement models of every
// campaign and aggregates the Figure 3 error classes, fanning every
// campaign×metric series across a pool of workers (<= 0 selects
// GOMAXPROCS). Results follow the campaign order and are byte-identical
// for any worker count. A non-nil cache is shared across campaigns, so
// identical measurement series are fitted once; a non-nil registry
// receives the fit_* metrics (see modeling.FitAllObserved).
func FitAllObserved(campaigns []*Campaign, opts *modeling.Options, workers int, cache *modeling.FitCache, reg *obs.Registry) ([]*FitResult, []stats.ErrorClass, error) {
	all := metrics.All()
	tasks := make([]modeling.FitTask, 0, len(campaigns)*len(all))
	for _, c := range campaigns {
		for _, m := range all {
			task, err := fitTask(c, m, opts)
			if err != nil {
				return nil, nil, err
			}
			tasks = append(tasks, task)
		}
	}
	outs := modeling.FitAllObserved(tasks, workers, cache, reg)
	var fits []*FitResult
	var allErrs []float64
	for i, c := range campaigns {
		f, err := assembleFit(c, outs[i*len(all):(i+1)*len(all)])
		if err != nil {
			return nil, nil, err
		}
		fits = append(fits, f)
		allErrs = append(allErrs, f.RelErrors()...)
	}
	return fits, stats.ClassifyRelativeErrors(allErrs), nil
}

func cloneOptions(opts *modeling.Options) *modeling.Options {
	if opts == nil {
		return modeling.DefaultOptions()
	}
	o := *opts
	o.Collectives = map[string]bool{}
	for k, v := range opts.Collectives {
		o.Collectives[k] = v
	}
	return &o
}

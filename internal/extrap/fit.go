package extrap

import (
	"extrareq/internal/modeling"
)

// SeriesFit is the fitted model of one region×metric series of an
// experiment. Err is per-series so that a heterogeneous file (for example
// one region with too few points) does not abort the whole experiment.
type SeriesFit struct {
	Region, Metric string
	Info           *modeling.ModelInfo
	Err            error
}

// FitExperiment fits every region×metric series of an experiment, fanning
// the fits across a worker pool (workers <= 0 selects GOMAXPROCS). The
// result order is deterministic — regions sorted, metrics sorted within
// each region — and independent of the worker count, so the output is
// byte-identical to a serial loop over the same series. A non-nil cache
// deduplicates fits of identical series across regions, metrics, and
// repeated calls.
func FitExperiment(e *Experiment, opts *modeling.Options, workers int, cache *modeling.FitCache) ([]SeriesFit, error) {
	var tasks []modeling.FitTask
	var out []SeriesFit
	for _, region := range e.Regions() {
		for _, metric := range e.Metrics(region) {
			ms, err := e.Measurements(region, metric)
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, modeling.FitTask{
				Key:    region + "/" + metric,
				Params: append([]string(nil), e.Parameters...),
				Ms:     ms,
				Agg:    modeling.AggMean,
				Opts:   opts,
			})
			out = append(out, SeriesFit{Region: region, Metric: metric})
		}
	}
	for i, o := range modeling.FitAllObserved(tasks, workers, cache, nil) {
		out[i].Info = o.Info
		out[i].Err = o.Err
	}
	return out, nil
}

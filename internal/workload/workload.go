// Package workload drives measurement campaigns: it runs a proxy
// application over a grid of process counts and problem sizes (the paper's
// rule of thumb: at least five configurations per parameter, §II-C),
// extracts the per-process requirement metrics of Table I from the
// counters, profiles, and locality probes, and converts the results into
// the measurement sets the model generator consumes.
package workload

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"

	"extrareq/internal/counters"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/simmpi"
)

// Grid is a measurement campaign specification.
type Grid struct {
	Procs []int `json:"procs"`
	Ns    []int `json:"ns"`
	Seed  int64 `json:"seed"`
	// Repeats is the number of runs per configuration (each with a derived
	// seed). The paper needs only one run per configuration because the
	// counters are highly reproducible (§II-B); repeats exercise the
	// model generator's aggregation over repeated observations. 0 means 1.
	Repeats int `json:"repeats,omitempty"`
}

// FivePointRule is the paper's rule of thumb (§II-C): at least five
// distinct values per model parameter, or the generator risks an
// under-constrained model.
const FivePointRule = 5

// AxisWarning reports a parameter axis that violates the five-point rule.
type AxisWarning struct {
	// Param is the model parameter ("p" or "n").
	Param string `json:"param"`
	// Points is the number of distinct values available on the axis.
	Points int `json:"points"`
	// Required is the rule-of-thumb minimum (FivePointRule).
	Required int `json:"required"`
}

func (w AxisWarning) String() string {
	return fmt.Sprintf("parameter %s has %d distinct points, below the paper's %d-point rule (§II-C): models in %s may be under-constrained",
		w.Param, w.Points, w.Required, w.Param)
}

// distinctCount returns the number of distinct values on an axis.
func distinctCount(axis []int) int {
	seen := map[int]bool{}
	for _, v := range axis {
		seen[v] = true
	}
	return len(seen)
}

// Validate rejects grids the pipeline cannot measure at all: an empty axis,
// or a non-positive process count or problem size. The paper's softer
// five-configurations rule of thumb is reported by FivePointWarnings — a
// sparse grid still measures, it just yields weakly constrained models.
func (g Grid) Validate() error {
	if len(g.Procs) == 0 {
		return fmt.Errorf("workload: grid has no process counts (Procs axis is empty; want at least one p >= 1)")
	}
	if len(g.Ns) == 0 {
		return fmt.Errorf("workload: grid has no problem sizes (Ns axis is empty; want at least one n >= 1)")
	}
	for _, p := range g.Procs {
		if p < 1 {
			return fmt.Errorf("workload: invalid process count %d on the Procs axis (every p must be >= 1)", p)
		}
	}
	for _, n := range g.Ns {
		if n < 1 {
			return fmt.Errorf("workload: invalid problem size %d on the Ns axis (every n must be >= 1)", n)
		}
	}
	return nil
}

// FivePointWarnings checks the paper's five-configurations rule of thumb
// (§II-C): one warning per parameter axis with fewer than FivePointRule
// distinct values. An empty slice means the grid satisfies the rule.
func (g Grid) FivePointWarnings() []AxisWarning {
	var out []AxisWarning
	if c := distinctCount(g.Procs); c < FivePointRule {
		out = append(out, AxisWarning{Param: "p", Points: c, Required: FivePointRule})
	}
	if c := distinctCount(g.Ns); c < FivePointRule {
		out = append(out, AxisWarning{Param: "n", Points: c, Required: FivePointRule})
	}
	return out
}

// DefaultProcs is the default process-count axis.
var DefaultProcs = []int{4, 8, 16, 32, 64}

// DefaultGrid returns the per-app measurement grid used by the repro
// harness. Problem-size ranges differ per app so that every proxy runs in
// its characteristic regime.
func DefaultGrid(app string) Grid {
	ns := map[string][]int{
		"Kripke":  {512, 1024, 2048, 4096, 8192},
		"LULESH":  {256, 512, 1024, 2048, 4096},
		"MILC":    {512, 1024, 2048, 4096, 8192},
		"Relearn": {1024, 2048, 4096, 8192, 16384},
		"icoFoam": {256, 512, 1024, 2048, 4096},
	}
	n, ok := ns[app]
	if !ok {
		n = []int{256, 512, 1024, 2048, 4096}
	}
	procs := append([]int(nil), DefaultProcs...)
	if app == "icoFoam" {
		// icoFoam's p^0.5 requirement growth needs a wider process range to
		// be distinguishable from logarithmic growth.
		procs = []int{8, 16, 32, 64, 128}
	}
	return Grid{Procs: procs, Ns: n, Seed: 42}
}

// Sample is the per-process metric vector measured at one configuration.
type Sample struct {
	P      int                `json:"p"`
	N      int                `json:"n"`
	Values map[string]float64 `json:"values"` // metric name -> value (mean over runs)
	// Runs holds the individual per-run values when the grid requested
	// repeats; empty for single-run campaigns.
	Runs []map[string]float64 `json:"runs,omitempty"`
}

// Campaign is the result of measuring one application over a grid.
type Campaign struct {
	App     string   `json:"app"`
	Grid    Grid     `json:"grid"`
	Samples []Sample `json:"samples"`
}

// Clone returns a deep copy of c that shares no map or slice with it.
// Nil and empty slices and maps stay apart, because JSON encodes one as
// null and the other as [] or {}.
func (c *Campaign) Clone() *Campaign {
	if c == nil {
		return nil
	}
	cp := *c
	cp.Grid.Procs = slices.Clone(c.Grid.Procs)
	cp.Grid.Ns = slices.Clone(c.Grid.Ns)
	cp.Samples = slices.Clone(c.Samples)
	for i := range cp.Samples {
		s := &cp.Samples[i]
		s.Values = maps.Clone(s.Values)
		s.Runs = slices.Clone(s.Runs)
		for j := range s.Runs {
			s.Runs[j] = maps.Clone(s.Runs[j])
		}
	}
	return &cp
}

// probeCap bounds retained locality samples per instruction group.
const probeCap = 1 << 14

// extract converts per-rank results into the Table I per-process metrics
// (mean over ranks; the matching hardware grows with the process count, so
// per-process means are the comparable quantity).
func extract(results []simmpi.Result, stackDistance float64) map[string]float64 {
	mean := func(e counters.Event) float64 {
		var s float64
		for _, r := range results {
			s += float64(r.Counters.Value(e))
		}
		return s / float64(len(results))
	}
	return map[string]float64{
		metrics.MemoryBytes.String():   mean(counters.RSS),
		metrics.Flops.String():         mean(counters.FLOP),
		metrics.CommBytes.String():     mean(counters.BytesSent) + mean(counters.BytesRecv),
		metrics.LoadsStores.String():   mean(counters.Load) + mean(counters.Store),
		metrics.StackDistance.String(): stackDistance,
		// Beyond Table I: per-process message counts, for latency-aware
		// analyses (model via MeasurementsByName).
		"msgs_sent_recv": mean(counters.MsgsSent) + mean(counters.MsgsRecv),
	}
}

// MeasurementsByName converts an arbitrary sample value (including
// extension values such as "msgs_sent_recv") into model-generator input.
func (c *Campaign) MeasurementsByName(name string) []modeling.Measurement {
	var out []modeling.Measurement
	for _, s := range c.Samples {
		v, ok := s.Values[name]
		if !ok {
			continue
		}
		out = append(out, modeling.Measurement{
			Coords: []float64{float64(s.P), float64(s.N)},
			Values: []float64{v},
		})
	}
	return out
}

// Measurements converts the campaign into model-generator input for one
// metric. When a sample carries repeated runs, all run values are passed
// through, so the generator's aggregation (mean/median) applies.
func (c *Campaign) Measurements(m metrics.Metric) []modeling.Measurement {
	var out []modeling.Measurement
	for _, s := range c.Samples {
		var values []float64
		if len(s.Runs) > 0 {
			for _, run := range s.Runs {
				if v, ok := run[m.String()]; ok {
					values = append(values, v)
				}
			}
		} else if v, ok := s.Values[m.String()]; ok {
			values = []float64{v}
		}
		if len(values) == 0 {
			continue
		}
		out = append(out, modeling.Measurement{
			Coords: []float64{float64(s.P), float64(s.N)},
			Values: values,
		})
	}
	return out
}

// Save writes the campaign as JSON to path.
func (c *Campaign) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a campaign written by Save.
func Load(path string) (*Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Campaign
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("workload: parsing %s: %w", path, err)
	}
	return &c, nil
}

// Command reqmodel fits requirements models from measurement campaigns
// written by reqgen (the Extra-P step of the paper's workflow) and prints
// them in Table II style together with fit-quality statistics.
//
// Usage:
//
//	reqmodel kripke.json lulesh.json ...
//	reqmodel -quality kripke.json       # include per-metric fit quality
//	reqmodel -byregion profile.txt      # per-region models of a multi-region Extra-P file
//
// All campaign×metric fits are fanned across one worker pool with a shared
// fit cache, so fitting many files scales with the core count while the
// output stays byte-identical to fitting them one at a time.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"extrareq"
	"extrareq/internal/codesign"
	"extrareq/internal/extrap"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/report"
	"extrareq/internal/workload"
)

func main() {
	quality := flag.Bool("quality", false, "print per-metric fit quality (CV SMAPE, R²)")
	export := flag.String("export", "", "write the fitted models as JSON (consumable by 'codesign -models')")
	plotMetric := flag.String("plot", "", "render ASCII charts of one metric vs its model (e.g. 'flop', 'bytes_used')")
	byRegion := flag.Bool("byregion", false, "fit every region×metric series of Extra-P text files separately")
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *byRegion {
		if err := fitByRegion(flag.Args()); err != nil {
			fatal(err)
		}
		return
	}

	// Load everything first, then fan every campaign×metric fit across one
	// worker pool with a shared cache (identical series across files fit
	// only once).
	campaigns := make([]*workload.Campaign, flag.NArg())
	for i, path := range flag.Args() {
		c, err := loadCampaign(path)
		if err != nil {
			fatal(err)
		}
		campaigns[i] = c
	}
	fits, _, err := workload.FitAllObserved(campaigns, nil, 0, modeling.NewFitCache(), nil)
	if err != nil {
		fatal(err)
	}
	var fitted []extrareq.App
	for i, fit := range fits {
		fitted = append(fitted, fit.App)
		if *plotMetric != "" {
			m, ok := metrics.ByName(*plotMetric)
			if !ok {
				fatal(fmt.Errorf("unknown metric %q", *plotMetric))
			}
			fmt.Println(report.ModelPlot(campaigns[i], fit.Info[m], m))
		}
	}
	if *quality {
		fmt.Println(report.QualityTable(fits))
	}
	table, err := extrareq.RenderTable2(fitted, extrareq.DefaultBaseline())
	if err != nil {
		fatal(err)
	}
	fmt.Println(table)

	if *export != "" {
		data, err := codesign.SaveApps(fitted)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*export, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote models to %s\n", *export)
	}
}

// fitByRegion fits every region×metric series of the given Extra-P text
// files through the parallel pipeline and prints one model per series.
func fitByRegion(paths []string) error {
	cache := modeling.NewFitCache()
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		e, err := extrap.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		fits, err := extrap.FitExperiment(e, nil, 0, cache)
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n", path)
		for _, s := range fits {
			if s.Err != nil {
				fmt.Printf("  %s/%s: unfittable: %v\n", s.Region, s.Metric, s.Err)
				continue
			}
			fmt.Printf("  %s/%s = %s  (CV SMAPE %.1f%%, R² %.3f)\n",
				s.Region, s.Metric, s.Info.Model, s.Info.SMAPE, s.Info.RSquared)
		}
	}
	return nil
}

// loadCampaign reads a campaign from JSON (".json") or the Extra-P text
// format (any other extension).
func loadCampaign(path string) (*workload.Campaign, error) {
	if strings.HasSuffix(path, ".json") {
		return workload.Load(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	e, err := extrap.Read(f)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return extrap.ToCampaign(e, name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reqmodel:", err)
	os.Exit(1)
}

// Command codesign runs the paper's co-design studies from requirements
// models: the relative upgrade comparison (Tables III-V) and the absolute
// exascale straw-man study (Tables VI-VII).
//
// Usage:
//
//	codesign -study upgrade                 # Table V from the paper models
//	codesign -study exascale                # Table VII
//	codesign -study walkthrough -app LULESH # Table IV
//	codesign -study upgrade -p 1048576 -mem 4294967296
//	codesign -study upgrade -models m.json      # fitted models from reqmodel
//	codesign -study upgrade -source measured    # measure + fit, then study
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"extrareq"
	"extrareq/internal/codesign"
	"extrareq/internal/machine"
)

func main() {
	var (
		study   = flag.String("study", "upgrade", "study: 'upgrade' (Table V), 'exascale' (Table VII), 'walkthrough' (Table IV)")
		appName = flag.String("app", "LULESH", "application for -study walkthrough")
		p       = flag.Float64("p", 0, "baseline process count (default 2^16)")
		mem     = flag.Float64("mem", 0, "baseline memory per process in bytes (default 2 GiB)")
		p2      = flag.Float64("p2", 1<<20, "target system process count for -study port")
		mem2    = flag.Float64("mem2", 256<<20, "target system memory per process for -study port")
		models  = flag.String("models", "", "JSON file with fitted models (default: the paper's Table II models)")
		source  = flag.String("source", "paper", "model source: 'paper' (published Table II models) or 'measured' (run the full measure+fit pipeline)")
	)
	flag.Parse()

	var apps []extrareq.App
	switch {
	case *models != "":
		loaded, err := loadModels(*models)
		if err != nil {
			fatal(err)
		}
		apps = loaded
	case *source == "measured":
		fmt.Fprintln(os.Stderr, "codesign: measuring all five proxy applications (this takes a few seconds)...")
		results, _, err := extrareq.RunAll(context.Background())
		if err != nil {
			fatal(err)
		}
		for _, r := range results {
			apps = append(apps, r.Requirements.App)
		}
	case *source == "paper":
		apps = extrareq.PaperApps()
	default:
		fatal(fmt.Errorf("unknown source %q (want 'paper' or 'measured')", *source))
	}
	base := extrareq.DefaultBaseline()
	if *p > 0 {
		base.P = *p
	}
	if *mem > 0 {
		base.Mem = *mem
	}

	switch *study {
	case "upgrade":
		fmt.Println(extrareq.RenderTable3())
		out, err := extrareq.StudyUpgrades(apps, base)
		if err != nil {
			fatal(err)
		}
		fmt.Println(extrareq.RenderTable5(out, names(apps)))
	case "exascale":
		fmt.Println(extrareq.RenderTable6())
		res, err := extrareq.StudyExascale(apps)
		if err != nil {
			fatal(err)
		}
		fmt.Println(extrareq.RenderTable7(res))
	case "walkthrough":
		app, err := byName(apps, *appName)
		if err != nil {
			fatal(err)
		}
		out, err := extrareq.RenderTable4(app, base, machine.Upgrades()[0])
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	case "rated":
		app, err := byName(apps, *appName)
		if err != nil {
			fatal(err)
		}
		outcomes, err := extrareq.StudyRated(app, func(s extrareq.System) extrareq.Rates {
			return extrareq.DefaultRates(s.FlopsPerProcessor)
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(extrareq.RenderRated(app.Name, outcomes))
	case "port":
		app, err := byName(apps, *appName)
		if err != nil {
			fatal(err)
		}
		res, err := extrareq.StudyPort(app, base, extrareq.Skeleton{P: *p2, Mem: *mem2})
		if err != nil {
			fatal(err)
		}
		fmt.Println(extrareq.RenderPort(res))
	case "share":
		// Equal shares across all loaded apps that have footprint models.
		fractions := make([]float64, len(apps))
		for i := range fractions {
			fractions[i] = 1 / float64(len(apps))
		}
		outcomes, err := extrareq.StudyShared(apps, base, fractions)
		if err != nil {
			fatal(err)
		}
		fmt.Println(extrareq.RenderShared(outcomes))
	default:
		fatal(fmt.Errorf("unknown study %q (want upgrade, exascale, walkthrough, rated, port, or share)", *study))
	}
}

// loadModels reads a JSON array of app models written by reqmodel -export.
func loadModels(path string) ([]extrareq.App, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return codesign.LoadApps(data)
}

func names(apps []extrareq.App) []string {
	var out []string
	for _, a := range apps {
		out = append(out, a.Name)
	}
	return out
}

func byName(apps []extrareq.App, name string) (extrareq.App, error) {
	for _, a := range apps {
		if a.Name == name {
			return a, nil
		}
	}
	return extrareq.App{}, fmt.Errorf("app %q not found", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "codesign:", err)
	os.Exit(1)
}

// Quickstart: the full requirements-engineering pipeline for one
// application, end to end — measure a proxy app at small scale, generate
// empirical requirements models r(p, n), inspect them, and extrapolate to
// an envisioned system three orders of magnitude larger than anything
// measured.
package main

import (
	"context"
	"fmt"
	"log"

	"extrareq"
)

func main() {
	// 1. Measure: run the Kripke proxy over a small p×n grid (the paper's
	//    rule of thumb: at least five configurations per parameter).
	fmt.Println("Measuring Kripke over its default 5×5 grid (p up to 64 simulated ranks)...")
	res, err := extrareq.Run(context.Background(), extrareq.Spec{App: "Kripke"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d configurations measured\n\n", len(res.Campaign.Samples))

	// 2. Model: Run also fitted the five Table I requirement metrics.
	reqs := res.Requirements
	fmt.Println("Fitted per-process requirements models r(p, n):")
	for _, m := range []extrareq.Metric{
		extrareq.MemoryBytes, extrareq.Flops, extrareq.CommBytes,
		extrareq.LoadsStores, extrareq.StackDistance,
	} {
		info := reqs.Info[m]
		fmt.Printf("  %-24s %-40s  (CV SMAPE %.2f%%)\n", m.Display(), info.Model, info.CVScore)
	}

	// 3. Extrapolate: evaluate the models far beyond the measured range.
	app := reqs.App
	fmt.Println("\nExtrapolated per-process requirements (measured max: p=64, n=8192):")
	for _, pt := range []struct{ p, n float64 }{
		{1 << 10, 1 << 14},
		{1 << 20, 1 << 14},
	} {
		flops, _ := app.Eval(extrareq.Flops, pt.p, pt.n)
		mem, _ := app.Eval(extrareq.MemoryBytes, pt.p, pt.n)
		fmt.Printf("  p=%-8.0f n=%-6.0f  #FLOP=%.3g  #Bytes used=%.3g\n", pt.p, pt.n, flops, mem)
	}

	// 4. Co-design: how would this app respond to doubling the machine?
	outcomes, err := extrareq.StudyUpgrades([]extrareq.App{app}, extrareq.DefaultBaseline())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nUpgrade study (ratios new/old at the default baseline):")
	for _, o := range outcomes[app.Name] {
		fmt.Printf("  %-22s overall problem ×%.2f, computation ×%.2f, communication ×%.2f\n",
			o.Upgrade.Name, o.OverallRatio, o.CompRatio, o.CommRatio)
	}
}

package extrareq

// Benchmarks for the extension subsystems beyond the paper's headline
// tables: per-call-path scaling-bug detection, the Extra-P text format,
// rated wall-time bounds, cache-miss prediction, and the Cartesian
// topology exchange.

import (
	"math/rand"
	"strings"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/codesign"
	"extrareq/internal/extrap"
	"extrareq/internal/locality"
	"extrareq/internal/machine"
	"extrareq/internal/pmnf"
	"extrareq/internal/simmpi"
	"extrareq/internal/workload"
)

func BenchmarkScalingBugHunt(b *testing.B) {
	// The n·p loads term needs the full default grid (p up to 64) to be
	// separable from noise.
	c, err := workload.RunWithPaths(apps.NewKripke(), workload.DefaultGrid("Kripke"))
	if err != nil {
		b.Fatal(err)
	}
	var found int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bugs, err := workload.FindScalingBugs(c, "loads", 1<<20, 1<<14, nil)
		if err != nil {
			b.Fatal(err)
		}
		found = len(bugs)
	}
	b.ReportMetric(float64(found), "bugs")
}

func BenchmarkCommHotSpots(b *testing.B) {
	c, err := workload.RunWithPaths(apps.NewMILC(), benchGrid)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.CommHotSpots(c, 1<<20, 1<<14, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtrapFormat(b *testing.B) {
	e, err := extrap.FromCampaign(measure(b, apps.NewKripke(), benchGrid))
	if err != nil {
		b.Fatal(err)
	}
	var buf strings.Builder
	if err := extrap.Write(&buf, e); err != nil {
		b.Fatal(err)
	}
	text := buf.String()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extrap.Read(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRatedExascaleStudy(b *testing.B) {
	app := codesign.PaperMILC()
	var bottleneck string
	for i := 0; i < b.N; i++ {
		out, err := codesign.RatedExascaleStudy(app, machine.StrawMen(),
			func(s machine.System) codesign.Rates { return codesign.DefaultRates(s.FlopsPerProcessor) })
		if err != nil {
			b.Fatal(err)
		}
		bottleneck = out[0].Breakdown.Bottleneck()
	}
	if bottleneck != "memory" {
		b.Fatalf("unexpected bottleneck %s", bottleneck)
	}
}

func BenchmarkShareSystem(b *testing.B) {
	appsList := PaperApps()
	fractions := make([]float64, len(appsList))
	for i := range fractions {
		fractions[i] = 1 / float64(len(appsList))
	}
	base := DefaultBaseline()
	for i := 0; i < b.N; i++ {
		if _, err := codesign.ShareSystem(appsList, base, fractions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMissRatioCurve(b *testing.B) {
	an := locality.NewAnalyzer()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100000; i++ {
		an.Observe(uint64(rng.Intn(2048)), "g")
	}
	caps := []int64{64, 256, 1024, 4096, 16384}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.MissRatioCurve(caps)
	}
}

func BenchmarkPMNFParse(b *testing.B) {
	const expr = "10^5·p^0.25·log2(p)·n·log2(n) + 10^3·Allreduce(p) + 42"
	b.SetBytes(int64(len(expr)))
	for i := 0; i < b.N; i++ {
		if _, err := pmnf.Parse(expr, "p", "n"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDesignAssess(b *testing.B) {
	app := codesign.PaperLULESH()
	sys := machine.StrawMen()[1]
	rates := codesign.DefaultRates(sys.FlopsPerProcessor)
	for i := 0; i < b.N; i++ {
		if _, err := codesign.Assess(app, sys, rates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCartExchange is a 16-rank world on a periodic 4×4 topology
// exchanging a 512-element halo in both directions of both dimensions,
// discarding what it receives, the way the stencil proxies exchange. The
// run's set-up is part of every op.
func BenchmarkCartExchange(b *testing.B) {
	payload := make([]float64, 512)
	for i := 0; i < b.N; i++ {
		_, err := simmpi.Run(16, func(p *simmpi.Proc) error {
			cart, err := p.NewCart([]int{4, 4}, []bool{true, true})
			if err != nil {
				return err
			}
			for dim := 0; dim < 2; dim++ {
				cart.Exchange(dim, 1, payload, nil)
				cart.Exchange(dim, -1, payload, nil)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

package report

import (
	"context"
	"strings"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/metrics"
	"extrareq/internal/workload"
)

func TestMarkdownRendering(t *testing.T) {
	tb := NewTable("My Title", "A", "B")
	tb.AddRow("1", "x|y")
	out := tb.Markdown()
	for _, want := range []string{"**My Title**", "| A | B |", "|---|---|", "| 1 | x\\|y |"} {
		if !strings.Contains(out, want) {
			t.Errorf("Markdown missing %q:\n%s", want, out)
		}
	}
}

func TestMarkdownNoTitle(t *testing.T) {
	tb := NewTable("", "H")
	tb.AddRow("v")
	out := tb.Markdown()
	if strings.Contains(out, "**") {
		t.Errorf("empty title should not render bold markers:\n%s", out)
	}
	if !strings.HasPrefix(out, "| H |") {
		t.Errorf("unexpected prefix:\n%s", out)
	}
}

// measureKripke measures a healthy Kripke campaign through the
// ResilientRunner and fits its models through FitAllObserved.
func measureKripke(t *testing.T, seed int64) (*workload.Campaign, *workload.FitResult) {
	t.Helper()
	r := &workload.ResilientRunner{App: apps.NewKripke()}
	c, _, err := r.Run(context.Background(), workload.Grid{
		Procs: []int{2, 4, 8, 16, 32},
		Ns:    []int{64, 128, 256, 512, 1024},
		Seed:  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	fits, _, err := workload.FitAllObserved([]*workload.Campaign{c}, nil, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, fits[0]
}

func TestModelPlot(t *testing.T) {
	c, fit := measureKripke(t, 11)
	out := ModelPlot(c, fit.Info[metrics.Flops], metrics.Flops)
	for _, want := range []string{"#FLOP vs n", "#FLOP vs p", "o measured", ". model"} {
		if !strings.Contains(out, want) {
			t.Errorf("ModelPlot missing %q", want)
		}
	}
	// Both charts must carry the five measured points of their axis line.
	for _, chart := range strings.Split(out, "\n\n") {
		markers := 0
		for _, line := range strings.Split(chart, "\n") {
			if strings.Contains(line, "|") {
				markers += strings.Count(line, "o")
			}
		}
		if markers < 4 { // points can overlap on a coarse canvas
			t.Errorf("chart shows only %d measured points:\n%s", markers, chart)
		}
	}
}

func TestQualityTable(t *testing.T) {
	_, fit := measureKripke(t, 4)
	out := QualityTable([]*workload.FitResult{fit})
	for _, want := range []string{"Kripke", "CV SMAPE %", "R²", "#FLOP"} {
		if !strings.Contains(out, want) {
			t.Errorf("QualityTable missing %q:\n%s", want, out)
		}
	}
}

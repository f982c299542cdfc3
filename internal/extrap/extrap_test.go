package extrap

import (
	"context"
	"strings"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/workload"
)

const sampleFile = `
# Extra-P text input
PARAMETER p
PARAMETER n

POINTS (2,128) (2,256) (4,128) (4,256) (8,128) (8,256) (16,128) (16,256) (32,128) (32,256)

REGION main
METRIC flop
DATA 256 512 256 512 256 512 256 512 256 512
DATA 256 512 256 512 256 512 256 512 256 512
DATA 256 512 256 512 256 512 256 512 256 512
DATA 256 512 256 512 256 512 256 512 256 512
DATA 256 512 256 512 256 512 256 512 256 512
DATA 256 512 256 512 256 512 256 512 256 512
DATA 256 512 256 512 256 512 256 512 256 512
DATA 256 512 256 512 256 512 256 512 256 512
DATA 256 512 256 512 256 512 256 512 256 512
DATA 256 512 256 512 256 512 256 512 256 512
`

func TestReadBasics(t *testing.T) {
	e, err := Read(strings.NewReader(sampleFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Parameters) != 2 || e.Parameters[0] != "p" {
		t.Fatalf("parameters = %v", e.Parameters)
	}
	if len(e.Points) != 10 {
		t.Fatalf("points = %d", len(e.Points))
	}
	if got := e.Regions(); len(got) != 1 || got[0] != "main" {
		t.Fatalf("regions = %v", got)
	}
	if got := e.Metrics("main"); len(got) != 1 || got[0] != "flop" {
		t.Fatalf("metrics = %v", got)
	}
	ms, err := e.Measurements("main", "flop")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 10 || len(ms[0].Values) != 10 {
		t.Fatalf("measurements %d × %d values", len(ms), len(ms[0].Values))
	}
}

func TestReadSingleParameterBarePoints(t *testing.T) {
	in := `PARAMETER x
POINTS 2 4 8 16 32
METRIC y
DATA 4
DATA 16
DATA 64
DATA 256
DATA 1024
`
	e, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := e.Measurements("main", "y") // implicit region
	if err != nil {
		t.Fatal(err)
	}
	info, err := modeling.FitMulti([]string{"x"}, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := info.Model.DominantFactor("x")
	if f.Poly != 2 {
		t.Errorf("fit from Extra-P file = %s, want x^2", info.Model)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"no parameter":     "POINTS 1 2 3\n",
		"no points":        "PARAMETER x\nMETRIC m\nDATA 1\n",
		"data pre metric":  "PARAMETER x\nPOINTS 1 2\nDATA 1\n",
		"unknown keyword":  "WHAT x\n",
		"bad number":       "PARAMETER x\nPOINTS 1 z\n",
		"tuple mismatch":   "PARAMETER x\nPARAMETER y\nPOINTS (1,2,3)\n",
		"unbalanced paren": "PARAMETER x\nPARAMETER y\nPOINTS (1,2\n",
		"bare multi":       "PARAMETER x\nPARAMETER y\nPOINTS 1 2\n",
		"count mismatch":   "PARAMETER x\nPOINTS 1 2 3\nMETRIC m\nDATA 1\n",
		"empty data":       "PARAMETER x\nPOINTS 1\nMETRIC m\nDATA\n",
		"empty region":     "PARAMETER x\nPOINTS 1\nREGION\n",
		"empty metric":     "PARAMETER x\nPOINTS 1\nMETRIC\n",
		// A duplicate POINTS line used to overwrite the earlier coordinates
		// silently while DATA kept accumulating against the old ones.
		"duplicate points": "PARAMETER x\nPOINTS 1 2\nPOINTS 3 4\nMETRIC m\nDATA 1\nDATA 2\n",
		// A PARAMETER after POINTS would change the arity of coordinates
		// that were already parsed.
		"parameter after points": "PARAMETER x\nPOINTS 1 2\nPARAMETER y\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadDuplicatePointsMessage(t *testing.T) {
	_, err := Read(strings.NewReader("PARAMETER x\nPOINTS 1 2\nPOINTS 3 4\n"))
	if err == nil || !strings.Contains(err.Error(), "duplicate POINTS") {
		t.Fatalf("err = %v, want duplicate POINTS parse error", err)
	}
	_, err = Read(strings.NewReader("PARAMETER x\nPOINTS 1 2\nPARAMETER y\n"))
	if err == nil || !strings.Contains(err.Error(), "PARAMETER after POINTS") {
		t.Fatalf("err = %v, want PARAMETER-after-POINTS parse error", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	e, err := Read(strings.NewReader(sampleFile))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := Write(&buf, e); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("re-reading written file: %v\n%s", err, buf.String())
	}
	if len(back.Points) != len(e.Points) {
		t.Fatalf("points changed: %d -> %d", len(e.Points), len(back.Points))
	}
	a, _ := e.Measurements("main", "flop")
	b, _ := back.Measurements("main", "flop")
	for i := range a {
		if a[i].Values[0] != b[i].Values[0] {
			t.Fatalf("value %d changed: %g -> %g", i, a[i].Values[0], b[i].Values[0])
		}
	}
}

func TestCampaignRoundTrip(t *testing.T) {
	r := &workload.ResilientRunner{App: apps.NewKripke()}
	c, _, err := r.Run(context.Background(), workload.Grid{
		Procs: []int{2, 4, 8, 16, 32},
		Ns:    []int{64, 128, 256, 512, 1024},
		Seed:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := FromCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := Write(&buf, e); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ToCampaign(back, "Kripke")
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Samples) != len(c.Samples) {
		t.Fatalf("samples %d -> %d", len(c.Samples), len(c2.Samples))
	}
	// The round-tripped campaign must fit the same dominant shapes.
	fits, _, err := workload.FitAllObserved([]*workload.Campaign{c2}, nil, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fit := fits[0]
	fn, ok := fit.App.Models[metrics.MemoryBytes].DominantFactor("n")
	if !ok || fn.Poly != 1 {
		t.Errorf("round-tripped footprint model = %s, want ~n", fit.App.Models[metrics.MemoryBytes])
	}
}

func TestToCampaignValidation(t *testing.T) {
	e := &Experiment{Parameters: []string{"x"}, Points: [][]float64{{1}},
		Data: map[string]map[string][][]float64{"main": {}}}
	if _, err := ToCampaign(e, "x"); err == nil {
		t.Error("wrong parameters accepted")
	}
	e2 := &Experiment{Parameters: []string{"p", "n"}, Points: [][]float64{{1, 2}},
		Data: map[string]map[string][][]float64{"other": {}}}
	if _, err := ToCampaign(e2, "x"); err == nil {
		t.Error("missing main region accepted")
	}
}

func TestFromCampaignEmpty(t *testing.T) {
	if _, err := FromCampaign(&workload.Campaign{}); err == nil {
		t.Error("empty campaign accepted")
	}
}

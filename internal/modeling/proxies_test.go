package modeling_test

import (
	"context"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/metrics"
	"extrareq/internal/modeling"
	"extrareq/internal/workload"
)

// The pruned searches must select what exhaustive exact scoring selects on
// real traffic: every metric of the five proxies on the 5×5 study grid
// (reqgen's jitter seed), which includes the median-aggregated
// stack-distance metric and the communication metric with its collective
// basis functions. Models, scores and leave-one-out folds must match the
// reference path bit for bit.
func TestPrunedSearchMatchesReferenceOnProxies(t *testing.T) {
	grid := workload.Grid{
		Procs: []int{2, 4, 8, 16, 32},
		Ns:    []int{128, 256, 512, 1024, 2048},
		Seed:  42,
	}
	var campaigns []*workload.Campaign
	for _, app := range apps.All() {
		c, _, err := (&workload.ResilientRunner{App: app}).Run(context.Background(), grid)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		campaigns = append(campaigns, c)
	}
	fast, _, err := workload.FitAllObserved(campaigns, nil, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := workload.FitAllObserved(campaigns, modeling.ReferenceOf(modeling.DefaultOptions()), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range campaigns {
		for _, m := range metrics.All() {
			a, b := fast[i].Info[m], ref[i].Info[m]
			if diff, ok := modeling.SameModelInfo(a, b); !ok {
				t.Errorf("%s %s: %s", c.App, m, diff)
			} else if !modeling.SameFolds(a, b) {
				t.Errorf("%s %s: CVFolds differ from the reference", c.App, m)
			}
		}
	}
}

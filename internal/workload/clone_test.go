package workload

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestCloneFieldCounts fails when a field is added to a type that
// Campaign.Clone or CampaignReport.Clone copies: a new map or slice field
// would otherwise be shared between a cached campaign and every clone of
// it. Update Clone (and TestCloneSharesNothing's fixture), then the count.
func TestCloneFieldCounts(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want int
	}{
		{Campaign{}, 3},
		{Grid{}, 4},
		{Sample{}, 4},
		{CampaignReport{}, 8},
		{ConfigOutcome{}, 5},
		{AxisWarning{}, 3},
	} {
		if got := reflect.TypeOf(tc.v).NumField(); got != tc.want {
			t.Errorf("%T has %d fields, Clone was written for %d", tc.v, got, tc.want)
		}
	}
}

// cloneFixture fills every map and slice the clones must copy.
func cloneFixture() (*Campaign, *CampaignReport) {
	c := &Campaign{
		App:  "Kripke",
		Grid: Grid{Procs: []int{2, 4}, Ns: []int{64, 128}, Seed: -3, Repeats: 2},
		Samples: []Sample{
			{P: 2, N: 64, Values: map[string]float64{"flops": 1, "bytes": 2},
				Runs: []map[string]float64{{"flops": 0.5}, {"flops": 1.5}}},
			{P: 4, N: 64, Values: map[string]float64{}, Runs: []map[string]float64{}},
			{P: 4, N: 128},
		},
	}
	lost := ConfigOutcome{P: 2, N: 128, Attempts: 3, Quarantined: true,
		Errors: []string{"rank 1 died", "watchdog"}}
	rep := &CampaignReport{
		App: "Kripke", Plan: "seed=7,kill=0.3", Configs: 4, Recovered: 1, ExtraRuns: 3,
		Quarantined: []ConfigOutcome{lost},
		Outcomes: []ConfigOutcome{
			{P: 2, N: 64, Attempts: 2, Errors: []string{"rank 0 died"}},
			lost,
			{P: 4, N: 64, Attempts: 1, Errors: []string{}},
			{P: 4, N: 128, Attempts: 1},
		},
		AxisWarnings: []AxisWarning{{Param: "n", Points: 2, Required: 5}},
	}
	return c, rep
}

// sharesMemory reports the first map or non-empty slice that a and b have
// in common, or a nil-versus-empty mismatch, walking both in step.
func sharesMemory(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return path + ": nil mismatch"
		}
		if a.IsNil() {
			return ""
		}
		if a.Pointer() == b.Pointer() {
			return path + ": shared pointer"
		}
		return sharesMemory(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if s := sharesMemory(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); s != "" {
				return s
			}
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return path + ": nil versus empty"
		}
		if a.Len() > 0 && a.Pointer() == b.Pointer() {
			return path + ": shared slice"
		}
		for i := 0; i < a.Len(); i++ {
			if s := sharesMemory(a.Index(i), b.Index(i), path+"[]"); s != "" {
				return s
			}
		}
	case reflect.Map:
		if a.IsNil() != b.IsNil() {
			return path + ": nil versus empty"
		}
		if !a.IsNil() && a.Pointer() == b.Pointer() {
			return path + ": shared map"
		}
	}
	return ""
}

// TestCloneSharesNothing checks that clones equal their originals, share
// no map or slice with them, and encode to the same JSON, including the
// nil/empty distinctions JSON makes visible: null samples of a fully
// quarantined campaign, [] versus null outcomes, {} versus null values.
func TestCloneSharesNothing(t *testing.T) {
	c, rep := cloneFixture()
	for _, orig := range []any{
		c, rep,
		&Campaign{App: "MILC", Grid: Grid{Procs: []int{}, Ns: nil}},
		&Campaign{App: "MILC", Samples: []Sample{}},
		&CampaignReport{App: "MILC", Outcomes: []ConfigOutcome{}},
		&CampaignReport{App: "MILC"},
	} {
		var clone any
		switch v := orig.(type) {
		case *Campaign:
			clone = v.Clone()
		case *CampaignReport:
			clone = v.Clone()
		}
		if !reflect.DeepEqual(orig, clone) {
			t.Errorf("%T clone differs from the original", orig)
		}
		if s := sharesMemory(reflect.ValueOf(orig), reflect.ValueOf(clone), reflect.TypeOf(orig).String()); s != "" {
			t.Errorf("clone %s", s)
		}
		want, err := json.Marshal(orig)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(clone); !bytes.Equal(got, want) {
			t.Errorf("clone encodes differently:\n got %s\nwant %s", got, want)
		}
	}
	if (*Campaign)(nil).Clone() != nil || (*CampaignReport)(nil).Clone() != nil {
		t.Error("nil clone is not nil")
	}
}

package main

import (
	"slices"
	"testing"
)

func TestParseSeeds(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []int64
	}{
		{"31-34", []int64{31, 32, 33, 34}},
		{"7-7", []int64{7}},
		{"1,5, 9", []int64{1, 5, 9}},
		{"4", []int64{4}},
	} {
		got, err := parseSeeds(tc.spec)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("parseSeeds(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "9-3", "a-4", "1,x"} {
		if got, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) = %v, want an error", bad, got)
		}
	}
}

// quartiles interpolates between order statistics, so ten values give
// the median halfway between the 5th and 6th and quartiles a quarter of
// the way into their gaps.
func TestQuartiles(t *testing.T) {
	median, q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if median != 5.5 || q1 != 3.25 || q3 != 7.75 {
		t.Errorf("quartiles(1..10) = %v, %v, %v; want 5.5, 3.25, 7.75", median, q1, q3)
	}
	if median, q1, q3 := quartiles([]float64{4}); median != 4 || q1 != 4 || q3 != 4 {
		t.Errorf("quartiles([4]) = %v, %v, %v; want 4, 4, 4", median, q1, q3)
	}
}

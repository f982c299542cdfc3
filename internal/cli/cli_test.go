package cli

import (
	"flag"
	"io"
	"strings"
	"testing"

	"extrareq"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var f Flags
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &f
}

func TestRegisterDefaults(t *testing.T) {
	f := parse(t)
	if f.Retries != 2 {
		t.Errorf("default retries = %d, want 2", f.Retries)
	}
	if f.Faults != "" || f.CacheDir != "" || f.CacheStats {
		t.Errorf("unexpected non-zero defaults: %+v", f)
	}
}

func TestSetupBuildsOptions(t *testing.T) {
	f := parse(t,
		"-faults", "seed=3,drop=0.01",
		"-retries", "5",
		"-min-points", "4",
		"-cache-dir", t.TempDir(),
		"-cache-stats",
	)
	var diag strings.Builder
	opts, err := f.Setup(&diag, "test")
	if err != nil {
		t.Fatal(err)
	}
	// Retries + min-points always, faults + observability (from
	// -cache-stats) + cache here.
	if len(opts) != 5 {
		t.Errorf("got %d options, want 5", len(opts))
	}
	if f.Plan() == nil || f.Plan().Drop != 0.01 {
		t.Errorf("plan = %+v, want drop=0.01", f.Plan())
	}
	if f.Registry() == nil {
		t.Error("-cache-stats did not allocate a registry")
	}
	if f.Tracer() != nil {
		t.Error("tracer allocated without -trace")
	}
}

func TestSetupRejectsBadFaultSpec(t *testing.T) {
	f := parse(t, "-faults", "drop=banana")
	if _, err := f.Setup(io.Discard, "test"); err == nil {
		t.Fatal("malformed fault spec accepted")
	}
}

func TestObserving(t *testing.T) {
	if parse(t).Observing() {
		t.Error("zero flags report observing")
	}
	for _, args := range [][]string{
		{"-trace", "t.jsonl"},
		{"-metrics", "m.json"},
		{"-cache-stats"},
	} {
		if !parse(t, args...).Observing() {
			t.Errorf("%v does not report observing", args)
		}
	}
}

func TestFinishPrintsCacheStats(t *testing.T) {
	f := parse(t, "-cache-stats")
	if _, err := f.Setup(io.Discard, "test"); err != nil {
		t.Fatal(err)
	}
	f.Registry().Counter("cache_hit").Add(3)
	f.Registry().Counter("cache_miss").Add(1)
	var diag strings.Builder
	if err := f.Finish(&diag, "test", nil); err != nil {
		t.Fatal(err)
	}
	out := diag.String()
	if !strings.Contains(out, "3 hits") || !strings.Contains(out, "1 misses") {
		t.Errorf("cache stats missing from %q", out)
	}
}

// A run served from its campaign entry reports that instead of a stop
// reason: the entry does not record why the run that wrote it stopped.
func TestReportAdaptiveStopReasons(t *testing.T) {
	kripke := &extrareq.Campaign{App: "Kripke"}
	cases := []struct {
		res  extrareq.Result
		want string
	}{
		{extrareq.Result{Campaign: kripke, PointsMeasured: 12, PointsSaved: 13,
			Adaptive: &extrareq.AdaptiveSummary{Rounds: 2, FullGridPoints: 25}},
			"test: Kripke adaptive campaign stopped on point budget after 2 rounds: 12 of 25 grid points measured (0 reused, 13 saved)\n"},
		{extrareq.Result{Campaign: kripke, PointsMeasured: 9, PointsSaved: 16,
			Adaptive: &extrareq.AdaptiveSummary{Rounds: 3, Converged: true, FullGridPoints: 25}},
			"test: Kripke adaptive campaign converged after 3 rounds: 9 of 25 grid points measured (0 reused, 16 saved)\n"},
		{extrareq.Result{Campaign: kripke, CacheHit: true, PointsReused: 12, PointsSaved: 13,
			Adaptive: &extrareq.AdaptiveSummary{FullGridPoints: 25}},
			"test: Kripke adaptive campaign served from its campaign entry: 0 of 25 grid points measured (12 reused, 13 saved)\n"},
	}
	for _, tc := range cases {
		var f Flags
		var diag strings.Builder
		f.ReportAdaptive(&diag, "test", []*extrareq.Result{&tc.res, nil, {}})
		if got := diag.String(); got != tc.want {
			t.Errorf("ReportAdaptive printed %q, want %q", got, tc.want)
		}
	}
}

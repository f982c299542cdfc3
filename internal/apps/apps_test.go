package apps

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"extrareq/internal/counters"
	"extrareq/internal/locality"
	"extrareq/internal/simmpi"
)

func runApp(t *testing.T, a App, p, n int) []simmpi.Result {
	t.Helper()
	res, err := a.Run(Config{Procs: p, N: n, Seed: 1})
	if err != nil {
		t.Fatalf("%s run failed: %v", a.Name(), err)
	}
	return res
}

func TestAllAppsRun(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			res := runApp(t, a, 4, 256)
			if len(res) != 4 {
				t.Fatalf("got %d results", len(res))
			}
			for _, r := range res {
				for _, e := range []counters.Event{counters.FLOP, counters.Load, counters.RSS} {
					if r.Counters.Value(e) <= 0 {
						t.Errorf("rank %d %v = %d, want > 0", r.Rank, e, r.Counters.Value(e))
					}
				}
			}
		})
	}
}

func TestAppsCommunicate(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			res := runApp(t, a, 4, 256)
			for _, r := range res {
				if r.Counters.Value(counters.BytesSent) <= 0 {
					t.Errorf("rank %d sent no bytes", r.Rank)
				}
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	k := NewKripke()
	if _, err := k.Run(Config{Procs: 0, N: 10}); err == nil {
		t.Error("expected error for 0 procs")
	}
	if _, err := k.Run(Config{Procs: 2, N: 0}); err == nil {
		t.Error("expected error for 0 problem size")
	}
	if _, err := k.Run(Config{Procs: 2, N: 8, Steps: -1}); err == nil {
		t.Error("expected error for negative steps")
	}
}

func TestDeterministicCounters(t *testing.T) {
	for _, a := range All() {
		cfg := Config{Procs: 4, N: 128, Seed: 7}
		r1, err := a.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := a.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r1 {
			for e := counters.Event(0); e < counters.NumEvents; e++ {
				if r1[i].Counters.Value(e) != r2[i].Counters.Value(e) {
					t.Errorf("%s rank %d %v differs across identical runs", a.Name(), i, e)
				}
			}
		}
	}
}

// ratio01 returns mean counter at cfg2 over mean at cfg1.
func ratio(t *testing.T, a App, e counters.Event, p1, n1, p2, n2 int) float64 {
	t.Helper()
	r1 := runApp(t, a, p1, n1)
	r2 := runApp(t, a, p2, n2)
	return meanCounters(r2, e) / meanCounters(r1, e)
}

func TestKripkeScaling(t *testing.T) {
	// Footprint, FLOP and comm are linear in n and p-independent.
	if got := ratio(t, NewKripke(), counters.RSS, 4, 512, 4, 1024); got < 1.9 || got > 2.1 {
		t.Errorf("footprint n-ratio = %g, want ~2", got)
	}
	if got := ratio(t, NewKripke(), counters.FLOP, 4, 512, 4, 1024); got < 1.9 || got > 2.1 {
		t.Errorf("flop n-ratio = %g, want ~2", got)
	}
	if got := ratio(t, NewKripke(), counters.FLOP, 4, 512, 16, 512); got < 0.9 || got > 1.1 {
		t.Errorf("flop p-ratio = %g, want ~1", got)
	}
	// Loads grow superlinearly with p at fixed n (the n·p term).
	if got := ratio(t, NewKripke(), counters.Load, 4, 512, 64, 512); got < 1.05 {
		t.Errorf("loads p-ratio = %g, want noticeably > 1", got)
	}
}

func TestLULESHScaling(t *testing.T) {
	// Footprint ∝ n·log n: quadrupling n scales by 4·log(4n)/log(n) > 4.
	if got := ratio(t, NewLULESH(), counters.RSS, 4, 256, 4, 1024); got < 4.0 || got > 6.0 {
		t.Errorf("footprint n-ratio = %g, want in (4, 6)", got)
	}
	// FLOP grows with p (p^0.25·log p): from p=4 to p=64 expect
	// 2^(1/2)... ratio = (64/4)^0.25 · log(64)/log(4) = 2·3 = 6-ish.
	got := ratio(t, NewLULESH(), counters.FLOP, 4, 256, 64, 256)
	if got < 3 || got > 9 {
		t.Errorf("flop p-ratio = %g, want ~6", got)
	}
	// Loads grow only with log p: ratio ≈ (2+2·6)/(2+2·2) ≈ 2.3.
	got = ratio(t, NewLULESH(), counters.Load, 4, 256, 64, 256)
	if got < 1.5 || got > 3.5 {
		t.Errorf("loads p-ratio = %g, want ~2.3", got)
	}
}

func TestMILCScaling(t *testing.T) {
	// Footprint linear in n.
	if got := ratio(t, NewMILC(), counters.RSS, 4, 512, 4, 2048); got < 3.8 || got > 4.2 {
		t.Errorf("footprint n-ratio = %g, want ~4", got)
	}
	// FLOP: a·n + b·n·log p — mild growth with p.
	got := ratio(t, NewMILC(), counters.FLOP, 4, 512, 64, 512)
	if got < 1.02 || got > 1.6 {
		t.Errorf("flop p-ratio = %g, want mild growth", got)
	}
	// Comm: the n-proportional halo dominates, diluted by the fixed
	// allreduce/bcast volume; doubling n nearly doubles comm bytes.
	got = ratio(t, NewMILC(), counters.BytesSent, 4, 1024, 4, 2048)
	if got < 1.6 || got > 2.2 {
		t.Errorf("comm n-ratio = %g, want ~2", got)
	}
}

func TestRelearnScaling(t *testing.T) {
	// Footprint ∝ sqrt(n): quadrupling n doubles the footprint.
	got := ratio(t, NewRelearn(), counters.RSS, 4, 4096, 4, 16384)
	if got < 1.8 || got > 2.4 {
		t.Errorf("footprint n-ratio = %g, want ~2", got)
	}
}

func TestIcoFoamScaling(t *testing.T) {
	// FLOP ∝ n^1.5: quadrupling n scales flops by 8.
	// Jitter applies to both the iteration count and the per-iteration
	// work, so the tolerance band is wide.
	got := ratio(t, NewIcoFoam(), counters.FLOP, 4, 256, 4, 1024)
	if got < 6.5 || got > 10 {
		t.Errorf("flop n-ratio = %g, want ~8", got)
	}
	// FLOP ∝ p^0.5: quadrupling p doubles flops.
	got = ratio(t, NewIcoFoam(), counters.FLOP, 4, 256, 16, 256)
	if got < 1.7 || got > 2.3 {
		t.Errorf("flop p-ratio = %g, want ~2", got)
	}
	// Footprint grows with p (the paper's fatal finding).
	got = ratio(t, NewIcoFoam(), counters.RSS, 4, 256, 64, 256)
	if got <= 1.0 {
		t.Errorf("footprint p-ratio = %g, want > 1", got)
	}
}

func TestLocalityProbes(t *testing.T) {
	medianAt := func(a App, n int) float64 {
		an := locality.NewAnalyzer()
		a.LocalityProbe(n, an)
		groups := locality.FilterGroups(an.Groups(), 10)
		if len(groups) == 0 {
			t.Fatalf("%s probe produced no groups with samples", a.Name())
		}
		return locality.MedianStackDistance(groups)
	}
	// Constant-locality apps: stack distance does not grow with n.
	for _, a := range []App{NewKripke(), NewLULESH(), NewRelearn(), NewIcoFoam()} {
		small, large := medianAt(a, 256), medianAt(a, 4096)
		if large > small*2+2 {
			t.Errorf("%s: stack distance grew %g -> %g, want constant", a.Name(), small, large)
		}
	}
	// MILC: stack distance grows linearly with n.
	small, large := medianAt(NewMILC(), 256), medianAt(NewMILC(), 4096)
	if large < small*8 {
		t.Errorf("MILC stack distance %g -> %g, want ~16x growth", small, large)
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"Kripke", "LULESH", "MILC", "Relearn", "icoFoam"} {
		a, ok := ByName(want)
		if !ok || a.Name() != want {
			t.Errorf("ByName(%q) failed", want)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown app resolved")
	}
	if len(Names()) != 5 {
		t.Errorf("Names() = %v", Names())
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	cfg := Config{Procs: 8, N: 128, Seed: 3}
	a := jitter(cfg, "s", 0.02)
	b := jitter(cfg, "s", 0.02)
	if a != b {
		t.Error("jitter not deterministic")
	}
	if c := jitter(cfg, "other", 0.02); c == a {
		t.Error("different streams should decorrelate (almost surely)")
	}
	for seed := int64(0); seed < 50; seed++ {
		f := jitter(Config{Procs: 4, N: 64, Seed: seed}, "x", 0.02)
		if f < 0.94 || f > 1.06 {
			t.Errorf("jitter %g out of clamp range", f)
		}
	}
}

func TestMeanCounters(t *testing.T) {
	res := runApp(t, NewKripke(), 4, 128)
	m := meanCounters(res, counters.FLOP)
	if m <= 0 {
		t.Fatal("mean flops should be positive")
	}
	var total float64
	for _, r := range res {
		total += float64(r.Counters.Value(counters.FLOP))
	}
	if math.Abs(m-total/4) > 1e-9 {
		t.Errorf("mean = %g, want %g", m, total/4)
	}
	if meanCounters(nil, counters.FLOP) != 0 {
		t.Error("empty mean should be 0")
	}
}

// TestTouchEvaluationsPinned pins, per proxy at one configuration, how
// many times the sampled kernels evaluate their arithmetic inside touch,
// how many touch calls there are, and the wrapping sum of the bits of
// every value touch returns (order-free, so the concurrent ranks cannot
// reorder it). The numbers were recorded when every kernel still strode
// through full-length arrays: storing only the sampled elements must
// neither skip arithmetic nor change a value. touch reports its calls only
// in builds with -tags touchpin, which scripts/check.sh runs.
func TestTouchEvaluationsPinned(t *testing.T) {
	if !countTouches {
		t.Skip("touch reports its calls only with -tags touchpin")
	}
	pins := map[string]struct {
		calls, evals int64
		sum          uint64
	}{
		"Kripke":  {8192, 36864, 0x81a0000000000000},
		"LULESH":  {264, 8448, 0x51fb3a0608b2e7c4},
		"MILC":    {240, 61440, 0x58b75392e564464c},
		"Relearn": {8, 256, 0x000a3d70a3d70a54},
		"icoFoam": {96, 3072, 0x0306c0f1bdd833bc},
	}
	defer func() { touchHook = nil }()
	for _, a := range All() {
		var mu sync.Mutex
		var calls, evals int64
		var sum uint64
		touchHook = func(n int, acc float64) {
			mu.Lock()
			calls++
			evals += int64(n)
			sum += math.Float64bits(acc)
			mu.Unlock()
		}
		if _, err := a.Run(Config{Procs: 4, N: 256, Seed: 1}); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		want := pins[a.Name()]
		if calls != want.calls || evals != want.evals || sum != want.sum {
			t.Errorf("%s: %d touch calls, %d evaluations, value sum %#016x; want %d, %d, %#016x",
				a.Name(), calls, evals, sum, want.calls, want.evals, want.sum)
		}
	}
}

// observer passes each probe access to an analyzer and keeps the distance
// it returns.
type observer struct {
	an   *locality.Analyzer
	seen []locality.Distance
	ok   []bool
}

func (o *observer) Record(addr uint64, group string) {
	d, ok := o.an.Observe(addr, group)
	o.seen = append(o.seen, d)
	o.ok = append(o.ok, ok)
}

// TestLocalityResetMatchesFresh: one analyzer reset between probes, as a
// campaign's runner uses it, returns the same distance for every access
// and the same group statistics as a fresh analyzer, for every proxy at
// n = 2048 and 128, in both orders.
func TestLocalityResetMatchesFresh(t *testing.T) {
	analyzer := func() *locality.Analyzer {
		an := locality.NewAnalyzer()
		an.MaxSamplesPerGroup = 1 << 14 // the campaign runner's cap
		return an
	}
	for _, a := range All() {
		reused := analyzer()
		for _, n := range []int{2048, 128, 2048} {
			want := &observer{an: analyzer()}
			a.LocalityProbe(n, want)
			reused.Reset()
			got := &observer{an: reused}
			a.LocalityProbe(n, got)
			if !reflect.DeepEqual(got.seen, want.seen) || !reflect.DeepEqual(got.ok, want.ok) {
				t.Errorf("%s n=%d: a reset analyzer returned other distances than a fresh one", a.Name(), n)
			}
			if g, w := got.an.Groups(), want.an.Groups(); !reflect.DeepEqual(g, w) {
				t.Errorf("%s n=%d: reset analyzer groups %+v, fresh %+v", a.Name(), n, g, w)
			}
		}
	}
}

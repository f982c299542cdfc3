package modeling

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"extrareq/internal/pmnf"
)

// sharedLineSeries returns a 5×5 series whose baseline lines (p = 2 and
// n = 64) follow p·n, and whose interior points carry an extra growth term
// scaled by k: series with different k share both baseline lines and
// differ everywhere off them.
func sharedLineSeries(k float64) []Measurement {
	return grid(gridPs, gridNs, func(p, n float64) float64 {
		v := 3 * p * n
		if p != gridPs[0] && n != gridNs[0] {
			v += k * p * p * math.Log2(n)
		}
		return v
	})
}

// sameFolds reports whether two fits carry bit-identical leave-one-out
// folds (sameModelInfo compares everything else).
func sameFolds(a, b *ModelInfo) bool {
	if len(a.CVFolds) != len(b.CVFolds) {
		return false
	}
	for i, fa := range a.CVFolds {
		fb := b.CVFolds[i]
		if math.Float64bits(fa.Err) != math.Float64bits(fb.Err) || len(fa.Coords) != len(fb.Coords) {
			return false
		}
		for j := range fa.Coords {
			if math.Float64bits(fa.Coords[j]) != math.Float64bits(fb.Coords[j]) {
				return false
			}
		}
	}
	return true
}

func TestLineMemoSharesBaselineLines(t *testing.T) {
	params := []string{"p", "n"}
	tasks := []FitTask{
		{Key: "a", Params: params, Ms: sharedLineSeries(1), Agg: AggMean},
		{Key: "b", Params: params, Ms: sharedLineSeries(5), Agg: AggMean},
	}
	cache := NewFitCache()
	outs := FitAllObserved(tasks, 1, cache, nil)
	if got := cache.lineHits.Load(); got != 2 {
		t.Errorf("line hits = %d, want 2 (the second fit reuses both baseline lines)", got)
	}
	if got := cache.Hits(); got != 0 {
		t.Errorf("whole-fit hits = %d, want 0 (the series differ off the lines)", got)
	}
	for i, task := range tasks {
		want, err := FitMulti(task.Params, task.Ms, nil)
		if err != nil || outs[i].Err != nil {
			t.Fatalf("%s: fit errors: cache-less %v, cached %v", task.Key, err, outs[i].Err)
		}
		if why, ok := sameModelInfo(outs[i].Info, want); !ok {
			t.Errorf("%s: cached fit differs from a cache-less fit: %s", task.Key, why)
		}
		if !sameFolds(outs[i].Info, want) {
			t.Errorf("%s: cached fit's CVFolds differ from a cache-less fit's", task.Key)
		}
	}
}

func TestLineMemoKeysEveryLineOption(t *testing.T) {
	line := []point{{x: []float64{2}, y: 6}, {x: []float64{4}, y: 12}, {x: []float64{8}, y: 25},
		{x: []float64{16}, y: 47}, {x: []float64{32}, y: 97}}
	base := func() *Options {
		o := DefaultOptions()
		o.Collectives = map[string]bool{"n": true}
		return o
	}
	cache := NewFitCache()
	if _, err := cache.lineFactors("p", line, base(), nil); err != nil {
		t.Fatal(err)
	}
	changed := append([]point(nil), line...)
	changed[2] = point{x: []float64{8}, y: 24}
	for _, v := range []struct {
		name    string
		param   string
		pts     []point
		mutate  func(o *Options)
		wantHit bool
	}{
		{name: "MinPoints", mutate: func(o *Options) { o.MinPoints = 4 }},
		{name: "collectives on the line's parameter", mutate: func(o *Options) { o.Collectives["p"] = true }},
		{name: "reference", mutate: func(o *Options) { o.reference = true }},
		{name: "MaxTerms", mutate: func(o *Options) { o.MaxTerms = 1 }},
		{name: "Improvement", mutate: func(o *Options) { o.Improvement = 0.1 }},
		{name: "AllowNegative", mutate: func(o *Options) { o.AllowNegative = true }},
		{name: "NoiseFloor", mutate: func(o *Options) { o.NoiseFloor = 1 }},
		{name: "poly exponents", mutate: func(o *Options) { o.PolyExponents = o.PolyExponents[:3] }},
		{name: "log exponents", mutate: func(o *Options) { o.LogExponents = o.LogExponents[:1] }},
		{name: "parameter name", param: "q"},
		{name: "one value", pts: changed},
		{name: "one point fewer", pts: line[:4]},
		// The search never reads another parameter's collectives.
		{name: "collectives on another parameter", mutate: func(o *Options) { o.Collectives = map[string]bool{} }, wantHit: true},
		{name: "nothing", wantHit: true},
	} {
		opts, param, pts := base(), "p", line
		if v.mutate != nil {
			v.mutate(opts)
		}
		if v.param != "" {
			param = v.param
		}
		if v.pts != nil {
			pts = v.pts
		}
		before := cache.lineHits.Load()
		if _, err := cache.lineFactors(param, pts, opts, nil); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if hit := cache.lineHits.Load() > before; hit != v.wantHit {
			t.Errorf("changing %s: line hit = %v, want %v", v.name, hit, v.wantHit)
		}
	}
}

func TestLineMemoConcurrentSearchesOnce(t *testing.T) {
	const n = 8
	tasks := make([]FitTask, n)
	for i := range tasks {
		tasks[i] = FitTask{Key: fmt.Sprint(i), Params: []string{"p", "n"},
			Ms: sharedLineSeries(float64(i + 1)), Agg: AggMean}
	}
	cache := NewFitCache()
	outs := FitAllObserved(tasks, n, cache, nil)
	for _, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	// Every lookup either claims its line or hits it, so 2n lookups with
	// 2n-2 hits leave exactly one search per line.
	if got := cache.lineHits.Load(); got != 2*n-2 {
		t.Errorf("line hits = %d, want %d (each of the 2 lines searched once)", got, 2*n-2)
	}
	if got := len(cache.lines); got != 2 {
		t.Errorf("line entries = %d, want 2", got)
	}
}

func TestLineMemoPanicReleasesWaiters(t *testing.T) {
	cache := NewFitCache()
	var fp [32]byte
	started := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		singleFlight(&cache.mu, cache.lines, fp, func() ([]pmnf.Factor, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	type result struct {
		err error
		hit bool
	}
	waiter := make(chan result, 1)
	go func() {
		// A waiter must get the panic error; one arriving after the entry
		// was dropped claims it and searches afresh.
		_, hit, err := singleFlight(&cache.mu, cache.lines, fp, func() ([]pmnf.Factor, error) { return nil, nil })
		if hit != errors.Is(err, errFitPanicked) {
			err = fmt.Errorf("hit=%v err=%v", hit, err)
		} else {
			err = nil
		}
		waiter <- result{err, hit}
	}()
	time.Sleep(20 * time.Millisecond) // widens the waiter's window only
	close(release)
	if r := <-panicked; r == nil {
		t.Error("panic did not propagate to the claimant")
	}
	var w result
	select {
	case w = <-waiter:
		if w.err != nil {
			t.Error(w.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the line search panicked")
	}
	// The panicked entry is gone; only a late claimant's own entry remains.
	want := 1
	if w.hit {
		want = 0
	}
	cache.mu.Lock()
	left := len(cache.lines)
	cache.mu.Unlock()
	if left != want {
		t.Errorf("%d line entries left after the panic, want %d", left, want)
	}
}

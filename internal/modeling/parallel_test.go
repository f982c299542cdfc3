package modeling

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolSeries builds a deterministic measurement series whose shape depends
// on the series index, so different tasks yield different models.
func poolSeries(idx int) []Measurement {
	var ms []Measurement
	for _, x := range []float64{2, 4, 8, 16, 32, 64} {
		v := float64(100+idx) * x
		if idx%2 == 1 {
			v = float64(50+idx) * x * math.Log2(x)
		}
		ms = append(ms, Measurement{Coords: []float64{x}, Values: []float64{v}})
	}
	return ms
}

func poolTasks(n int) []FitTask {
	tasks := make([]FitTask, n)
	for i := range tasks {
		tasks[i] = FitTask{
			Key:    fmt.Sprintf("series-%d", i),
			Params: []string{"n"},
			Ms:     poolSeries(i),
			Agg:    AggMean,
		}
	}
	return tasks
}

// TestFitAllOrderIndependentOfWorkers proves the determinism guarantee:
// the outcome slice is identical (same keys, byte-identical rendered
// models) for every worker count, including the serial reference.
func TestFitAllOrderIndependentOfWorkers(t *testing.T) {
	tasks := poolTasks(12)
	render := func(outs []FitOutcome) []string {
		lines := make([]string, len(outs))
		for i, o := range outs {
			if o.Err != nil {
				t.Fatalf("task %s: %v", o.Key, o.Err)
			}
			lines[i] = o.Key + " = " + o.Info.Model.String()
		}
		return lines
	}
	ref := render(FitAllObserved(tasks, 1, nil, nil))
	for _, workers := range []int{2, 3, 4, 8, 0} {
		got := render(FitAllObserved(tasks, workers, nil, nil))
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d outcome %d = %q, want %q (serial)", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestFitCacheIdenticalMeasurements verifies the content-keyed cache:
// identical measurement sets under different task keys share one fitted
// model (pointer-identical), and repeat passes are pure cache hits.
func TestFitCacheIdenticalMeasurements(t *testing.T) {
	base := poolTasks(4)
	dup := make([]FitTask, len(base))
	for i, task := range base {
		task.Key = "dup/" + task.Key
		dup[i] = task
	}
	cache := NewFitCache()
	first := FitAllObserved(base, 4, cache, nil)
	second := FitAllObserved(dup, 4, cache, nil)
	if cache.Len() != len(base) {
		t.Errorf("cache holds %d entries, want %d", cache.Len(), len(base))
	}
	if hits := cache.Hits(); hits != int64(len(dup)) {
		t.Errorf("cache hits = %d, want %d (second pass fully cached)", hits, len(dup))
	}
	for i := range first {
		if first[i].Info != second[i].Info {
			t.Errorf("task %d: cache returned a different *ModelInfo for identical measurements", i)
		}
		if second[i].Key != dup[i].Key {
			t.Errorf("task %d: outcome key %q, want %q", i, second[i].Key, dup[i].Key)
		}
	}
}

// TestFitCacheSingleFlight: concurrent claimants of one fingerprint run
// the fit once; every other claimant waits and shares the result as a hit.
func TestFitCacheSingleFlight(t *testing.T) {
	cache := NewFitCache()
	var fp [32]byte
	release := make(chan struct{})
	var fits atomic.Int64
	fit := func() (*ModelInfo, error) {
		fits.Add(1)
		<-release
		return &ModelInfo{}, nil
	}
	const claimants = 16
	infos := make([]*ModelInfo, claimants)
	var wg sync.WaitGroup
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			infos[i], _, _ = cache.do(fp, fit)
		}(i)
	}
	// Once the first claimant owns the entry, give the others a moment to
	// block on it. The sleep only widens that window: a claimant arriving
	// after the fit is a plain hit, so the assertions hold either way.
	for cache.Len() == 0 {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := fits.Load(); n != 1 {
		t.Fatalf("fit ran %d times, want 1", n)
	}
	if h := cache.Hits(); h != claimants-1 {
		t.Errorf("hits = %d, want %d", h, claimants-1)
	}
	for i, info := range infos {
		if info != infos[0] {
			t.Errorf("claimant %d got a different *ModelInfo", i)
		}
	}
}

// TestFitCachePanicReleasesWaiters: a panicking fit still releases its
// waiters, with an error, and leaves no entry behind, so the next claimant
// fits afresh.
func TestFitCachePanicReleasesWaiters(t *testing.T) {
	cache := NewFitCache()
	var fp [32]byte
	started := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		cache.do(fp, func() (*ModelInfo, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		// A waiter must get the panic error; one arriving after the entry
		// was dropped claims it and fits afresh.
		_, err, hit := cache.do(fp, func() (*ModelInfo, error) { return &ModelInfo{}, nil })
		if hit != errors.Is(err, errFitPanicked) {
			err = fmt.Errorf("hit=%v err=%v", hit, err)
		} else {
			err = nil
		}
		waiter <- err
	}()
	time.Sleep(20 * time.Millisecond) // widens the waiter's window only
	close(release)
	if r := <-panicked; r == nil {
		t.Error("panic did not propagate to the claimant")
	}
	select {
	case err := <-waiter:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the fit panicked")
	}
	info, err, hit := cache.do(fp, func() (*ModelInfo, error) { return &ModelInfo{}, nil })
	if hit || err != nil || info == nil {
		t.Errorf("after panic: info=%v err=%v hit=%v, want a fresh fit", info, err, hit)
	}
}

// TestFitCacheDistinguishesContent verifies that the fingerprint reacts to
// every content dimension: values, coordinates, aggregator, and options.
func TestFitCacheDistinguishesContent(t *testing.T) {
	base := FitTask{Params: []string{"n"}, Ms: poolSeries(0), Agg: AggMean}
	variants := []FitTask{base}

	v := base
	v.Ms = poolSeries(1)
	variants = append(variants, v)

	v = base
	v.Agg = AggMedian
	variants = append(variants, v)

	v = base
	o := DefaultOptions()
	o.MaxTerms = 1
	v.Opts = o
	variants = append(variants, v)

	v = base
	o2 := DefaultOptions()
	o2.Collectives = map[string]bool{"n": true}
	v.Opts = o2
	variants = append(variants, v)

	seen := map[[32]byte]int{}
	for i, task := range variants {
		fp := fingerprint(task)
		if j, dup := seen[fp]; dup {
			t.Errorf("variants %d and %d share a fingerprint", i, j)
		}
		seen[fp] = i
	}

	// Options pointer identity must not matter, only content.
	a, b := base, base
	a.Opts, b.Opts = DefaultOptions(), DefaultOptions()
	if fingerprint(a) != fingerprint(b) {
		t.Error("equal option contents under distinct pointers fingerprint differently")
	}
	// nil options are equivalent to DefaultOptions.
	if fingerprint(base) != fingerprint(a) {
		t.Error("nil options fingerprint differently from DefaultOptions")
	}
}

// TestFitAllPropagatesErrors verifies that a failing task reports its
// error in position without disturbing its neighbours, and that errors are
// cached like successes.
func TestFitAllPropagatesErrors(t *testing.T) {
	tasks := poolTasks(3)
	// A two-parameter grid with only two distinct values per parameter:
	// below the MinPoints rule of thumb, the multi-parameter fit refuses.
	tasks[1].Params = []string{"p", "n"}
	tasks[1].Ms = []Measurement{
		{Coords: []float64{2, 128}, Values: []float64{1}},
		{Coords: []float64{2, 256}, Values: []float64{2}},
		{Coords: []float64{4, 128}, Values: []float64{3}},
		{Coords: []float64{4, 256}, Values: []float64{4}},
	}
	cache := NewFitCache()
	for pass := 0; pass < 2; pass++ {
		outs := FitAllObserved(tasks, 2, cache, nil)
		if outs[0].Err != nil || outs[2].Err != nil {
			t.Fatalf("pass %d: healthy tasks failed: %v %v", pass, outs[0].Err, outs[2].Err)
		}
		if !errors.Is(outs[1].Err, ErrTooFewPoints) {
			t.Fatalf("pass %d: outs[1].Err = %v, want ErrTooFewPoints", pass, outs[1].Err)
		}
	}
	if cache.Hits() != 3 {
		t.Errorf("cache hits = %d, want 3 (second pass fully cached, including the error)", cache.Hits())
	}
}

// TestFitAllEmpty covers the degenerate inputs.
func TestFitAllEmpty(t *testing.T) {
	if out := FitAllObserved(nil, 4, nil, nil); len(out) != 0 {
		t.Errorf("FitAllObserved(nil) = %v, want empty", out)
	}
	if out := FitAllObserved([]FitTask{}, 0, NewFitCache(), nil); len(out) != 0 {
		t.Errorf("FitAllObserved(empty) = %v, want empty", out)
	}
}

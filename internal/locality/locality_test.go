package locality

import (
	"math/rand"
	"reflect"
	"testing"

	"extrareq/internal/trace"
)

// bruteDistances computes reuse and stack distances with an O(N·W)
// reference algorithm for cross-checking the Fenwick implementation.
func bruteDistances(addrs []uint64) []Distance {
	var out []Distance
	lastIdx := map[uint64]int{}
	for i, a := range addrs {
		if j, ok := lastIdx[a]; ok {
			distinct := map[uint64]bool{}
			for k := j + 1; k < i; k++ {
				distinct[addrs[k]] = true
			}
			out = append(out, Distance{
				Reuse: int64(i - j - 1),
				Stack: int64(len(distinct)),
			})
		} else {
			out = append(out, Distance{Reuse: -1, Stack: -1})
		}
		lastIdx[a] = i
	}
	return out
}

func TestFigure1Example(t *testing.T) {
	// The paper's Figure 1: accesses a, b, c, b, c, a.
	a, b, c := uint64(1), uint64(2), uint64(3)
	an := NewAnalyzer()
	type exp struct {
		addr         uint64
		ok           bool
		reuse, stack int64
	}
	seq := []exp{
		{a, false, 0, 0},
		{b, false, 0, 0},
		{c, false, 0, 0},
		{b, true, 1, 1}, // one access (c) in between, one unique location
		{c, true, 1, 1}, // one access (b) in between
		{a, true, 4, 2}, // b,c,b,c in between; two unique locations
	}
	for i, e := range seq {
		d, ok := an.Observe(e.addr, "g")
		if ok != e.ok {
			t.Fatalf("access %d: ok = %v, want %v", i, ok, e.ok)
		}
		if !ok {
			continue
		}
		if d.Reuse != e.reuse || d.Stack != e.stack {
			t.Errorf("access %d: RD=%d SD=%d, want RD=%d SD=%d", i, d.Reuse, d.Stack, e.reuse, e.stack)
		}
	}
}

func TestAnalyzerMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(500)
		addrSpace := 1 + rng.Intn(40)
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(addrSpace))
		}
		want := bruteDistances(addrs)
		an := NewAnalyzer()
		for i, a := range addrs {
			d, ok := an.Observe(a, "g")
			if !ok {
				if want[i].Reuse != -1 {
					t.Fatalf("trial %d access %d: analyzer says first touch, brute force disagrees", trial, i)
				}
				continue
			}
			if want[i].Reuse == -1 {
				t.Fatalf("trial %d access %d: brute force says first touch", trial, i)
			}
			if d.Reuse != want[i].Reuse || d.Stack != want[i].Stack {
				t.Fatalf("trial %d access %d: got RD=%d SD=%d, want RD=%d SD=%d",
					trial, i, d.Reuse, d.Stack, want[i].Reuse, want[i].Stack)
			}
		}
	}
}

func TestAnalyzerGrowth(t *testing.T) {
	// Force several Fenwick growth cycles and verify a known distance after.
	an := NewAnalyzer()
	for i := 0; i < 5000; i++ {
		an.Observe(uint64(i), "g")
	}
	// Re-access address 0: 4999 accesses in between, all distinct.
	d, ok := an.Observe(0, "g")
	if !ok {
		t.Fatal("address 0 was accessed before")
	}
	if d.Reuse != 4999 || d.Stack != 4999 {
		t.Fatalf("RD=%d SD=%d, want 4999/4999", d.Reuse, d.Stack)
	}
	if an.Accesses() != 5001 {
		t.Errorf("Accesses = %d, want 5001", an.Accesses())
	}
}

// TestResetForgetsGroups: after Reset, a group the new stream never
// touches is not reported, and the stream's distances, statistics and
// access count match a fresh analyzer's although the reset one still holds
// a grown Fenwick tree and the old group's samples.
func TestResetForgetsGroups(t *testing.T) {
	an := NewAnalyzer()
	for i := 0; i < 3000; i++ {
		an.Observe(uint64(i%7), "old")
	}
	an.Reset()
	fresh := NewAnalyzer()
	for i := 0; i < 50; i++ {
		addr := uint64(i % 5)
		got, gotOK := an.Observe(addr, "new")
		want, wantOK := fresh.Observe(addr, "new")
		if got != want || gotOK != wantOK {
			t.Fatalf("access %d: reset analyzer %+v/%v, fresh %+v/%v", i, got, gotOK, want, wantOK)
		}
	}
	if got, want := an.Groups(), fresh.Groups(); !reflect.DeepEqual(got, want) {
		t.Errorf("groups after Reset %+v, want %+v", got, want)
	}
	if _, ok := an.StackPercentile("old", 0.5); ok {
		t.Error("StackPercentile reports the group from before Reset")
	}
	if an.Accesses() != 50 {
		t.Errorf("Accesses = %d after Reset, want 50", an.Accesses())
	}
}

func TestStackVsReuseDiverge(t *testing.T) {
	// a x x x a: reuse 3, stack 1 (only one unique location between).
	an := NewAnalyzer()
	an.Observe(1, "g")
	an.Observe(2, "g")
	an.Observe(2, "g")
	an.Observe(2, "g")
	d, ok := an.Observe(1, "g")
	if !ok || d.Reuse != 3 || d.Stack != 1 {
		t.Fatalf("RD=%d SD=%d ok=%v, want RD=3 SD=1", d.Reuse, d.Stack, ok)
	}
}

func TestGroupStats(t *testing.T) {
	an := NewAnalyzer()
	// Group A: three accesses to the same address -> distances 0,0.
	an.Observe(1, "A")
	an.Observe(1, "A")
	an.Observe(1, "A")
	// Group B: streaming, no distances.
	an.Observe(10, "B")
	an.Observe(11, "B")
	groups := an.Groups()
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	ga, gb := groups[0], groups[1]
	if ga.Group != "A" || gb.Group != "B" {
		t.Fatalf("groups not sorted: %v %v", ga.Group, gb.Group)
	}
	if ga.Accesses != 3 || ga.Samples != 2 || ga.FirstTouches != 1 {
		t.Errorf("A stats = %+v", ga)
	}
	if ga.MedianStack != 0 || ga.MedianReuse != 0 {
		t.Errorf("A medians = %g/%g, want 0/0", ga.MedianStack, ga.MedianReuse)
	}
	if gb.Samples != 0 || gb.FirstTouches != 2 {
		t.Errorf("B stats = %+v", gb)
	}
}

func TestFilterGroups(t *testing.T) {
	groups := []GroupStats{
		{Group: "hot", Samples: 200},
		{Group: "cold", Samples: 50},
		{Group: "exact", Samples: 100},
	}
	got := FilterGroups(groups, DefaultMinSamples)
	if len(got) != 2 {
		t.Fatalf("got %d groups, want 2", len(got))
	}
	for _, g := range got {
		if g.Group == "cold" {
			t.Error("cold group (<100 samples) must be filtered")
		}
	}
}

func TestMedianStackDistance(t *testing.T) {
	groups := []GroupStats{
		{Group: "a", Samples: 10, MedianStack: 5},
		{Group: "b", Samples: 1000, MedianStack: 50},
		{Group: "c", Samples: 10, MedianStack: 500},
	}
	if got := MedianStackDistance(groups); got != 50 {
		t.Errorf("weighted median = %g, want 50 (dominated by group b)", got)
	}
	if got := MedianStackDistance(nil); got != 0 {
		t.Errorf("empty median = %g, want 0", got)
	}
}

func TestMaxSamplesPerGroupCap(t *testing.T) {
	an := NewAnalyzer()
	an.MaxSamplesPerGroup = 5
	for i := 0; i < 100; i++ {
		an.Observe(1, "g")
	}
	g := an.Groups()[0]
	if g.Samples != 99 {
		t.Errorf("Samples = %d, want 99 (counted even when not retained)", g.Samples)
	}
}

func TestAnalyzerBehindBurstSampler(t *testing.T) {
	an := NewAnalyzer()
	s := trace.NewBurstSampler(an, 10, 10)
	for i := 0; i < 1000; i++ {
		s.Record(uint64(i%7), "loop")
	}
	if s.Total() != 1000 || s.Sampled() != 500 {
		t.Fatalf("total=%d sampled=%d, want 1000/500", s.Total(), s.Sampled())
	}
	if an.Accesses() != 500 {
		t.Errorf("analyzer saw %d accesses, want 500", an.Accesses())
	}
	g := an.Groups()[0]
	if g.MedianStack != 6 {
		// Cyclic access over 7 addresses: stack distance 6 whenever
		// consecutive accesses fall in the same burst.
		t.Errorf("median stack = %g, want 6", g.MedianStack)
	}
}

func TestStackPercentileAndHistogram(t *testing.T) {
	an := NewAnalyzer()
	// Build a bimodal distance distribution: mostly 1, some 9.
	for i := 0; i < 100; i++ {
		an.Observe(1, "g") // distance 1 after warmup (x in between)
		an.Observe(2, "g")
	}
	// Interleave a far reuse: touch 10 fresh addrs then revisit one.
	for r := 0; r < 10; r++ {
		base := uint64(100 + r*100)
		for i := uint64(0); i < 9; i++ {
			an.Observe(base+i, "far")
		}
		an.Observe(base, "far") // distance 8 within this run... plus 'g' noise
	}
	p50, ok := an.StackPercentile("g", 0.5)
	if !ok || p50 != 1 {
		t.Errorf("median g distance = %g ok=%v, want 1", p50, ok)
	}
	if _, ok := an.StackPercentile("nope", 0.5); ok {
		t.Error("unknown group should report !ok")
	}
	h, ok := an.StackHistogram("g", []float64{0, 2, 10})
	if !ok {
		t.Fatal("histogram unavailable")
	}
	if h.Counts[0] == 0 {
		t.Errorf("expected short distances in the first bucket: %+v", h.Counts)
	}
	if _, ok := an.StackHistogram("nope", []float64{0}); ok {
		t.Error("unknown group histogram should report !ok")
	}
}

func TestFenwickRangeSum(t *testing.T) {
	f := newFenwick(16)
	f.set(3)
	f.set(7)
	f.set(8)
	if got := f.rangeSum(0, 15); got != 3 {
		t.Errorf("full range = %d, want 3", got)
	}
	if got := f.rangeSum(4, 7); got != 1 {
		t.Errorf("[4,7] = %d, want 1", got)
	}
	if got := f.rangeSum(9, 5); got != 0 {
		t.Errorf("empty range = %d, want 0", got)
	}
	f.clear(7)
	if got := f.rangeSum(0, 15); got != 2 {
		t.Errorf("after clear = %d, want 2", got)
	}
}

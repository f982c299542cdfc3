package campaign

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/workload"
)

// hitFixtures are campaign entries whose JSON exercises every shape a hit
// body can take: repeats, quarantined outcomes with errors, axis
// warnings, a fault plan, and a fully quarantined campaign (null
// samples). They are stored under real request keys, so Run hits them.
func hitFixtures(t testing.TB) map[string]struct {
	req  Request
	data []byte
} {
	t.Helper()
	app := testApp(t)
	grid := workload.Grid{Procs: []int{2, 4}, Ns: []int{64, 128}, Seed: 5, Repeats: 2}
	vals := func(f float64) map[string]float64 { return map[string]float64{"flop": f, "bytes_used": 2 * f} }
	clean := func(p, n int) workload.ConfigOutcome { return workload.ConfigOutcome{P: p, N: n, Attempts: 1} }
	lost := workload.ConfigOutcome{P: 4, N: 128, Attempts: 3, Quarantined: true,
		Errors: []string{"simmpi: rank 1 killed", "simmpi: watchdog timeout", "simmpi: rank 0 killed"}}

	repeats := &workload.Campaign{App: app.Name(), Grid: grid}
	var outs []workload.ConfigOutcome
	for _, p := range grid.Procs {
		for _, n := range grid.Ns {
			f := float64(p * n)
			repeats.Samples = append(repeats.Samples, workload.Sample{P: p, N: n, Values: vals(f),
				Runs: []map[string]float64{vals(f - 1), vals(f + 1)}})
			outs = append(outs, clean(p, n))
		}
	}
	repeatsRep := &workload.CampaignReport{App: app.Name(), Configs: 4, Outcomes: outs,
		AxisWarnings: []workload.AxisWarning{{Param: "n", Points: 2, Required: 5}, {Param: "p", Points: 2, Required: 5}}}

	faulty := &workload.Campaign{App: app.Name(), Grid: grid, Samples: repeats.Samples[:3]}
	faultyRep := &workload.CampaignReport{App: app.Name(), Plan: "seed=7,kill=0.3", Configs: 4,
		Recovered: 1, ExtraRuns: 3,
		Quarantined: []workload.ConfigOutcome{lost},
		Outcomes: []workload.ConfigOutcome{clean(2, 64),
			{P: 2, N: 128, Attempts: 2, Errors: []string{"simmpi: rank 1 killed"}}, clean(4, 64), lost},
		AxisWarnings: []workload.AxisWarning{{Param: "n", Points: 1, Required: 2}}}

	allLost := &workload.Campaign{App: app.Name(), Grid: grid}
	allLostRep := &workload.CampaignReport{App: app.Name(), Plan: "seed=7,kill=0.3", Configs: 4,
		ExtraRuns: 8, Quarantined: []workload.ConfigOutcome{lost, lost, lost, lost},
		Outcomes:     []workload.ConfigOutcome{lost, lost, lost, lost},
		AxisWarnings: []workload.AxisWarning{{Param: "n", Points: 0, Required: 5}, {Param: "p", Points: 0, Required: 5}}}

	out := map[string]struct {
		req  Request
		data []byte
	}{}
	add := func(name string, req Request, c *workload.Campaign, rep *workload.CampaignReport) {
		data, err := EncodeEntry(ComputeKey(req), app.Name(), c, rep)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = struct {
			req  Request
			data []byte
		}{req, data}
	}
	add("repeats", Request{App: app, Grid: grid}, repeats, repeatsRep)
	add("quarantine", Request{App: app, Grid: grid, Retries: 2, MinPoints: 2}, faulty, faultyRep)
	add("all lost", Request{App: app, Grid: grid, Retries: 2}, allLost, allLostRep)
	return out
}

// freshHitBody is the body a hit served before the memory tier kept
// decoded entries: a fresh Decode of the bytes, encoded as a hit on the
// request's whole grid.
func freshHitBody(t testing.TB, req Request, data []byte) []byte {
	t.Helper()
	key := ComputeKey(req)
	c, rep, err := Decode(key, data)
	if err != nil {
		t.Fatal(err)
	}
	body, err := EncodeOutcome(&Outcome{Campaign: c, Report: rep, Key: key, CacheHit: true,
		PointsReused: len(req.Grid.Procs) * len(req.Grid.Ns)})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// checkHit asserts that out is a campaign-entry hit whose shared body and
// handed-out objects both encode exactly what a fresh decode does.
func checkHit(t *testing.T, what string, out *Outcome, want []byte) {
	t.Helper()
	if !out.CacheHit || out.Body == nil {
		t.Fatalf("%s: cache_hit %v, body %d bytes: not a campaign-entry hit", what, out.CacheHit, len(out.Body))
	}
	if !bytes.Equal(out.Body, want) {
		t.Errorf("%s: Body differs from EncodeOutcome of a fresh Decode:\n got %s\nwant %s", what, out.Body, want)
	}
	enc, err := EncodeOutcome(&Outcome{Campaign: out.Campaign, Report: out.Report, Key: out.Key,
		CacheHit: out.CacheHit, PointsReused: out.PointsReused, PointsMeasured: out.PointsMeasured})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Errorf("%s: handed-out objects encode differently from the Body:\n got %s\nwant %s", what, enc, want)
	}
}

// Memory and store hits on every fixture serve the body a fresh decode
// would have produced, on the decoding hit and on the hits after it.
func TestHitBodyMatchesFreshDecode(t *testing.T) {
	ctx := context.Background()
	for name, fx := range hitFixtures(t) {
		want := freshHitBody(t, fx.req, fx.data)

		// Memory: PutEntry puts undecoded bytes; the first hit decodes.
		mem, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.PutEntry(ctx, ComputeKey(fx.req), fx.data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var outs []*Outcome
		for i, what := range []string{"first memory hit", "decoded memory hit"} {
			out, err := mem.Run(ctx, fx.req)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, what, err)
			}
			checkHit(t, name+": "+what, out, want)
			if st := mem.Stats(); st.Hits != int64(i+1) || st.Misses != 0 {
				t.Errorf("%s: %s: stats %+v", name, what, st)
			}
			outs = append(outs, out)
		}
		if &outs[0].Body[0] != &outs[1].Body[0] {
			t.Errorf("%s: memory hits decoded the entry twice", name)
		}
		mem.Close()

		// Store: a disk hit installs the decoded form for memory hits.
		dir := t.TempDir()
		disk, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := disk.Store(ctx, ComputeKey(fx.req), fx.data); err != nil {
			t.Fatal(err)
		}
		cold, err := New(Options{Workers: 1, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		outs = outs[:0]
		for _, what := range []string{"store hit", "memory hit after store hit"} {
			out, err := cold.Run(ctx, fx.req)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, what, err)
			}
			checkHit(t, name+": "+what, out, want)
			outs = append(outs, out)
		}
		if &outs[0].Body[0] != &outs[1].Body[0] {
			t.Errorf("%s: the memory hit after a store hit decoded the entry again", name)
		}
		if st := cold.Stats(); st.Hits != 2 || st.Bytes != int64(len(fx.data)) {
			t.Errorf("%s: stats %+v, want 2 hits and one entry's bytes loaded", name, st)
		}
		cold.Close()
	}
}

// A measured campaign with repeats: the miss returns objects no hit
// shares, and the hits' body is the one a fresh decode produces.
func TestHitAfterMissMatchesFreshDecode(t *testing.T) {
	ctx := context.Background()
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The miss's campaign shares its grid axes with the request, which
	// the scribble below overwrites, so the hits get fresh requests.
	req := func() Request { return Request{App: testApp(t), Grid: testGrid()} }
	miss, err := s.Run(ctx, req())
	if err != nil {
		t.Fatal(err)
	}
	if miss.CacheHit || miss.Body != nil {
		t.Fatalf("first run: cache_hit %v with %d body bytes, want a miss without a body", miss.CacheHit, len(miss.Body))
	}
	data, ok := s.Lookup(ctx, miss.Key)
	if !ok {
		t.Fatal("miss did not cache its entry")
	}
	want := freshHitBody(t, req(), data)
	scribbleOutcome(miss) // the miss's objects are the caller's own
	for _, what := range []string{"first hit", "second hit"} {
		out, err := s.Run(ctx, req())
		if err != nil {
			t.Fatal(err)
		}
		checkHit(t, what, out, want)
	}
}

// scribbleOutcome overwrites every map and slice element of out's
// campaign and report.
func scribbleOutcome(out *Outcome) {
	c, rep := out.Campaign, out.Report
	for i := range c.Grid.Procs {
		c.Grid.Procs[i] = -1
	}
	for i := range c.Grid.Ns {
		c.Grid.Ns[i] = -1
	}
	for i := range c.Samples {
		s := &c.Samples[i]
		s.P, s.N = -1, -1
		for k := range s.Values {
			s.Values[k] = -1
		}
		for _, run := range s.Runs {
			for k := range run {
				run[k] = -1
			}
		}
	}
	for _, outs := range [][]workload.ConfigOutcome{rep.Outcomes, rep.Quarantined} {
		for i := range outs {
			outs[i].Attempts = -1
			for j := range outs[i].Errors {
				outs[i].Errors[j] = "scribbled"
			}
		}
	}
	for i := range rep.AxisWarnings {
		rep.AxisWarnings[i].Points = -1
	}
	c.App, rep.App, rep.Plan = "scribbled", "scribbled", "scribbled"
}

// Each hit gets objects no other caller can see: writing through every
// map and slice of one hit leaves the next hit's objects and the shared
// body as they were.
func TestHitCallersGetOwnCopies(t *testing.T) {
	ctx := context.Background()
	for name, fx := range hitFixtures(t) {
		s, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutEntry(ctx, ComputeKey(fx.req), fx.data); err != nil {
			t.Fatal(err)
		}
		want := freshHitBody(t, fx.req, fx.data)
		first, err := s.Run(ctx, fx.req)
		if err != nil {
			t.Fatal(err)
		}
		scribbleOutcome(first)
		next, err := s.Run(ctx, fx.req)
		if err != nil {
			t.Fatal(err)
		}
		checkHit(t, name+": hit after a caller scribbled on its copy", next, want)
		if next.Campaign == first.Campaign || next.Report == first.Report {
			t.Errorf("%s: two hits share a campaign or report", name)
		}
		s.Close()
	}
}

// PutEntry of different bytes under a cached key drops the decoded form:
// the next hit serves the new entry.
func TestPutEntryNewBytesServeNewEntry(t *testing.T) {
	ctx := context.Background()
	fx := hitFixtures(t)["repeats"]
	key := ComputeKey(fx.req)
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutEntry(ctx, key, fx.data); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, fx.req); err != nil { // decodes and keeps the form
		t.Fatal(err)
	}
	c, rep, err := Decode(key, fx.data)
	if err != nil {
		t.Fatal(err)
	}
	c.Samples[0].Values["flop"] = 12345
	rep.Recovered = 1
	newer, err := EncodeEntry(key, c.App, c, rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(ctx, key, newer); err != nil {
		t.Fatal(err)
	}
	out, err := s.Run(ctx, fx.req)
	if err != nil {
		t.Fatal(err)
	}
	checkHit(t, "hit after PutEntry of new bytes", out, freshHitBody(t, fx.req, newer))
	if out.Campaign.Samples[0].Values["flop"] != 12345 || out.Report.Recovered != 1 {
		t.Error("hit after PutEntry served the old entry's objects")
	}

	// Re-putting the same bytes keeps serving them.
	if err := s.PutEntry(ctx, key, newer); err != nil {
		t.Fatal(err)
	}
	again, err := s.Run(ctx, fx.req)
	if err != nil {
		t.Fatal(err)
	}
	checkHit(t, "hit after PutEntry of the same bytes", again, freshHitBody(t, fx.req, newer))
}

// Concurrent first hits on one undecoded entry race to decode it; every
// one of them answers with identical bytes, and each writes through its
// own objects while the others clone theirs (run under -race).
func TestConcurrentFirstHitsIdenticalBodies(t *testing.T) {
	ctx := context.Background()
	fx := hitFixtures(t)["quarantine"]
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutEntry(ctx, ComputeKey(fx.req), fx.data); err != nil {
		t.Fatal(err)
	}
	want := freshHitBody(t, fx.req, fx.data)
	const n = 16
	bodies, objects := make([][]byte, n), make([][]byte, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := s.Run(ctx, fx.req)
			if err != nil {
				t.Error(err)
				return
			}
			bodies[i] = out.Body
			objects[i] = mustJSON(t, []any{out.Campaign, out.Report})
			scribbleOutcome(out)
		}()
	}
	wg.Wait()
	for i := range bodies {
		if !bytes.Equal(bodies[i], want) {
			t.Errorf("hit %d: body differs from a fresh decode", i)
		}
		if !bytes.Equal(objects[i], objects[0]) {
			t.Errorf("hit %d: campaign and report differ from hit 0's", i)
		}
	}
	if st := s.Stats(); st.Hits != n {
		t.Errorf("hits = %d, want %d", st.Hits, n)
	}
}

// A memory hit on a decoded 3x3 entry does no JSON: it allocates a small
// fraction of what one Decode of the same bytes does.
func TestMemoryHitAllocs(t *testing.T) {
	ctx := context.Background()
	app, ok := apps.ByName("MILC")
	if !ok {
		t.Fatal("app MILC not registered")
	}
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := Request{App: app, Grid: workload.Grid{Procs: []int{2, 4, 8}, Ns: []int{32, 64, 96}, Seed: 41}}
	first, err := s.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, req); err != nil { // decodes once
		t.Fatal(err)
	}
	data, _ := s.Lookup(ctx, first.Key)
	decode := testing.AllocsPerRun(20, func() {
		if _, _, err := Decode(first.Key, data); err != nil {
			t.Fatal(err)
		}
	})
	hit := testing.AllocsPerRun(50, func() {
		if out, err := s.Run(ctx, req); err != nil || out.Body == nil {
			t.Fatalf("not a decoded memory hit: %v", err)
		}
	})
	t.Logf("memory hit: %.0f allocs; one Decode of the %d-byte entry: %.0f allocs", hit, len(data), decode)
	if hit*3 > decode {
		t.Errorf("memory hit allocates %.0f times, want under a third of one Decode (%.0f)", hit, decode)
	}
}

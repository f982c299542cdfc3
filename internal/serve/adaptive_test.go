package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"extrareq/internal/adaptive"
	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/obs"
	"extrareq/internal/workload"
)

// kripkeGrid is the 4x4 candidate grid the adaptive serve tests submit.
func kripkeGrid() workload.Grid {
	return workload.Grid{Procs: []int{2, 4, 8, 16}, Ns: []int{32, 64, 128, 256}, Seed: 7}
}

func TestValidateProgress(t *testing.T) {
	run := func(mut func(*JobStatus)) error {
		prev := JobStatus{State: "running", DoneConfigs: 3, TotalConfigs: 16,
			PointsReused: 1, PointsMeasured: 2, Attached: 2}
		cur := prev
		mut(&cur)
		return ValidateProgress(prev, cur)
	}

	if err := run(func(c *JobStatus) { c.DoneConfigs = 5; c.PointsMeasured = 4 }); err != nil {
		t.Errorf("legal successor rejected: %v", err)
	}
	if err := run(func(c *JobStatus) {}); err != nil {
		t.Errorf("identical snapshot rejected: %v", err)
	}
	if err := run(func(c *JobStatus) { c.PointsSaved = 8; c.DoneConfigs = 8 }); err != nil {
		t.Errorf("commit snapshot rejected: %v", err)
	}

	bad := map[string]func(*JobStatus){
		"done regresses":     func(c *JobStatus) { c.DoneConfigs = 2 },
		"total regresses":    func(c *JobStatus) { c.TotalConfigs = 8 },
		"reused regresses":   func(c *JobStatus) { c.PointsReused = 0 },
		"measured regresses": func(c *JobStatus) { c.PointsMeasured = 1 },
		"attached regresses": func(c *JobStatus) { c.Attached = 1 },
		"done exceeds total": func(c *JobStatus) { c.DoneConfigs = 17 },
		"split exceeds total": func(c *JobStatus) {
			c.PointsReused, c.PointsMeasured, c.PointsSaved = 8, 8, 8
		},
	}
	for name, mut := range bad {
		if err := run(mut); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Adaptive and fixed-grid submissions of the same spec are different work:
// they must coalesce on different keys, and the adaptive one must answer
// with a measured subset and a positive points_saved.
func TestAdaptiveSubmitHTTP(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	spec := `{"app":"Kripke","grid":{"procs":[2,4,8,16],"ns":[32,64,128,256],"seed":7}`

	respF, bodyF := postJSON(t, ts.URL+"/v1/campaigns", spec+`}`, nil)
	if respF.StatusCode != http.StatusOK {
		t.Fatalf("fixed submit: %d: %s", respF.StatusCode, bodyF)
	}
	respA, bodyA := postJSON(t, ts.URL+"/v1/campaigns", spec+`,"adaptive":{}}`, nil)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("adaptive submit: %d: %s", respA.StatusCode, bodyA)
	}
	if respF.Header.Get("X-Campaign-Key") == respA.Header.Get("X-Campaign-Key") {
		t.Error("adaptive and fixed submissions share a campaign key")
	}

	var fixed, adapt struct {
		CacheHit       bool `json:"cache_hit"`
		PointsReused   int  `json:"points_reused"`
		PointsMeasured int  `json:"points_measured"`
		PointsSaved    int  `json:"points_saved"`
		Report         struct {
			Configs int `json:"configs"`
		} `json:"report"`
	}
	if err := json.Unmarshal(bodyF, &fixed); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodyA, &adapt); err != nil {
		t.Fatal(err)
	}
	if fixed.PointsSaved != 0 {
		t.Errorf("fixed-grid points_saved = %d, want 0", fixed.PointsSaved)
	}
	if adapt.PointsSaved == 0 {
		t.Error("adaptive points_saved = 0, want a skipped remainder")
	}
	if adapt.PointsReused+adapt.PointsMeasured+adapt.PointsSaved != 16 {
		t.Errorf("adaptive split %d+%d+%d does not cover the 16-point grid",
			adapt.PointsReused, adapt.PointsMeasured, adapt.PointsSaved)
	}
	if adapt.Report.Configs*2 > 16 {
		t.Errorf("adaptive selected %d of 16 points, want at most half", adapt.Report.Configs)
	}

	// Identical adaptive resubmission: a campaign-level cache hit with the
	// same canonical body modulo the cache_hit/reused accounting.
	respA2, bodyA2 := postJSON(t, ts.URL+"/v1/campaigns", spec+`,"adaptive":{}}`, nil)
	if respA2.StatusCode != http.StatusOK {
		t.Fatalf("adaptive resubmit: %d: %s", respA2.StatusCode, bodyA2)
	}
	var adapt2 struct {
		CacheHit bool            `json:"cache_hit"`
		Report   json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(bodyA2, &adapt2); err != nil {
		t.Fatal(err)
	}
	if !adapt2.CacheHit {
		t.Error("adaptive resubmission was not a cache hit")
	}
	var rep1 struct {
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(bodyA, &rep1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1.Report, adapt2.Report) {
		t.Error("cache-hit report differs from the original adaptive report")
	}

	// Explicit default options coalesce with the empty object onto the
	// same key (the engine hashes resolved options).
	respA3, _ := postJSON(t, ts.URL+"/v1/campaigns",
		spec+`,"adaptive":{"batch_size":2,"max_points":8,"improvement":0.02,"stable_rounds":1}}`, nil)
	if respA3.Header.Get("X-Campaign-Key") != respA.Header.Get("X-Campaign-Key") {
		t.Error("explicit default adaptive options changed the campaign key")
	}
}

// The satellite pin: SSE watch snapshots of an adaptive job are pairwise
// legal under ValidateProgress — points_reused/points_measured/
// points_saved never regress and never exceed the grid.
func TestAdaptiveJobWatchMonotone(t *testing.T) {
	sched, err := campaign.New(campaign.Options{Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	_, ts := newHTTPServer(t, Options{Runner: sched})

	body := `{"app":"Kripke","grid":{"procs":[2,4,8,16],"ns":[32,64,128,256],"seed":7},` +
		`"adaptive":{},"wait":false}`
	resp, data := postJSON(t, ts.URL+"/v1/campaigns", body, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async adaptive submit: %d: %s", resp.StatusCode, data)
	}
	var accepted struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(data, &accepted); err != nil {
		t.Fatal(err)
	}

	respW, err := http.Get(ts.URL + "/v1/jobs/" + accepted.Key + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer respW.Body.Close()

	var snaps []JobStatus
	sc := bufio.NewScanner(respW.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var st JobStatus
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
			t.Fatalf("bad snapshot %q: %v", line, err)
		}
		snaps = append(snaps, st)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("watch stream delivered no snapshots")
	}
	last := snaps[len(snaps)-1]
	if last.State != "done" {
		t.Fatalf("stream ended in state %q, want done", last.State)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].State != "running" {
			break // terminal snapshot is a different shape (cache lookup)
		}
		if err := ValidateProgress(snaps[i-1], snaps[i]); err != nil {
			t.Errorf("snapshot %d is not a legal successor: %v\nprev %+v\ncur  %+v",
				i, err, snaps[i-1], snaps[i])
		}
	}
	for _, st := range snaps {
		if st.State != "running" {
			continue
		}
		if st.TotalConfigs != 0 && st.TotalConfigs != 16 {
			t.Errorf("snapshot total_configs = %d, want the full grid (16)", st.TotalConfigs)
		}
	}
}

// Start with adaptive options registers the flight under the adaptive key
// so progress polls resolve it, and a fixed-grid Start of the same spec
// runs its own flight.
func TestStartAdaptiveSeparateFlight(t *testing.T) {
	sched, err := campaign.New(campaign.Options{Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	// Not newTestServer: that helper substitutes a stubRunner, and this
	// test needs real point-set rounds behind the adaptive flight.
	s, err := New(Options{Runner: sched, Metrics: obs.NewRegistry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	app, ok := apps.ByName("Kripke")
	if !ok {
		t.Fatal("app Kripke not registered")
	}
	req := campaign.Request{App: app, Grid: kripkeGrid()}
	ka, err := s.Start("t", req, &adaptive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kf, err := s.Start("t", req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ka == kf {
		t.Fatal("adaptive and fixed-grid flights share a key")
	}
	waitFor(t, "both flights to finish", func() bool {
		sa, oka := s.Job(context.Background(), ka)
		sf, okf := s.Job(context.Background(), kf)
		return oka && okf && sa.State == "done" && sf.State == "done"
	})
}

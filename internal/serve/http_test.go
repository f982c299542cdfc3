package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"extrareq/internal/campaign"
	"extrareq/internal/metrics"
	"extrareq/internal/obs"
)

// newHTTPServer wires a real scheduler behind the HTTP surface.
func newHTTPServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Runner == nil {
		sched, err := campaign.New(campaign.Options{Workers: 2, Dir: t.TempDir(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sched.Close)
		opts.Runner = sched
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	opts.Logf = t.Logf
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func submitBody(seed int64) string {
	return fmt.Sprintf(`{"app":"Kripke","grid":{"procs":[2,4],"ns":[64,128],"seed":%d}}`, seed)
}

func postJSON(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// A grid that repeats axis values measures fewer distinct values than it
// lists; the models endpoint must still answer with all five models.
func TestHTTPModelsRepeatedAxisValues(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/campaigns",
		`{"app":"Kripke","grid":{"procs":[2,4,4],"ns":[64,128,128],"seed":1}}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	key := resp.Header.Get("X-Campaign-Key")
	respM, bodyM := getJSON(t, ts.URL+"/v1/campaigns/"+key+"/models")
	if respM.StatusCode != http.StatusOK {
		t.Fatalf("models: status %d: %s", respM.StatusCode, bodyM)
	}
	var models struct {
		Models map[string]json.RawMessage `json:"models"`
	}
	if err := json.Unmarshal(bodyM, &models); err != nil {
		t.Fatalf("models response not JSON: %v\n%s", err, bodyM)
	}
	for _, m := range metrics.All() {
		if _, ok := models.Models[m.String()]; !ok {
			t.Errorf("models response lacks %s: %s", m, bodyM)
		}
	}
}

// End-to-end submit against the real scheduler: fresh run, then a cache
// hit, then the fetch and models endpoints against the same key.
func TestHTTPSubmitFetchModels(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})

	resp, body := postJSON(t, ts.URL+"/v1/campaigns", submitBody(1), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	key := resp.Header.Get("X-Campaign-Key")
	if key == "" {
		t.Fatal("missing X-Campaign-Key header")
	}
	var out struct {
		Key      string `json:"key"`
		App      string `json:"app"`
		CacheHit bool   `json:"cache_hit"`
		Report   *struct {
			Configs int `json:"configs"`
		} `json:"report"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("submit response not JSON: %v\n%s", err, body)
	}
	if out.Key != key || out.App != "Kripke" || out.CacheHit {
		t.Fatalf("unexpected submit response: %+v", out)
	}

	// Identical resubmission is answered from the cache.
	resp2, body2 := postJSON(t, ts.URL+"/v1/campaigns", submitBody(1), nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d", resp2.StatusCode)
	}
	var out2 struct {
		CacheHit bool `json:"cache_hit"`
	}
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if !out2.CacheHit {
		t.Error("identical resubmission was not a cache hit")
	}

	// Fetch by key.
	respGet, bodyGet := getJSON(t, ts.URL+"/v1/campaigns/"+key)
	if respGet.StatusCode != http.StatusOK {
		t.Fatalf("fetch: status %d: %s", respGet.StatusCode, bodyGet)
	}
	var fetched struct {
		Key      string `json:"key"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.Unmarshal(bodyGet, &fetched); err != nil {
		t.Fatal(err)
	}
	if fetched.Key != key || !fetched.CacheHit {
		t.Fatalf("fetched campaign: %+v", fetched)
	}

	// Models for the cached campaign.
	respM, bodyM := getJSON(t, ts.URL+"/v1/campaigns/"+key+"/models")
	if respM.StatusCode != http.StatusOK {
		t.Fatalf("models: status %d: %s", respM.StatusCode, bodyM)
	}
	var models struct {
		App    string                     `json:"app"`
		Models map[string]json.RawMessage `json:"models"`
	}
	if err := json.Unmarshal(bodyM, &models); err != nil {
		t.Fatalf("models response not JSON: %v\n%s", err, bodyM)
	}
	if models.App != "Kripke" || len(models.Models) == 0 {
		t.Fatalf("models response: app=%q, %d models", models.App, len(models.Models))
	}

	// Job endpoint reports the finished campaign as cached.
	respJ, bodyJ := getJSON(t, ts.URL+"/v1/jobs/"+key)
	if respJ.StatusCode != http.StatusOK {
		t.Fatalf("job: status %d: %s", respJ.StatusCode, bodyJ)
	}
	var job JobStatus
	if err := json.Unmarshal(bodyJ, &job); err != nil {
		t.Fatal(err)
	}
	if job.State != "done" || !job.Cached {
		t.Fatalf("job status: %+v", job)
	}
}

// Async submission: 202 with polling URLs; the job completes and becomes
// fetchable.
func TestHTTPAsyncSubmit(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/campaigns",
		`{"app":"Kripke","grid":{"procs":[2],"ns":[64],"seed":9},"wait":false}`, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", resp.StatusCode, body)
	}
	var acc struct {
		Key      string `json:"key"`
		Progress string `json:"progress"`
		Result   string `json:"result"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Key == "" || !strings.Contains(acc.Progress, acc.Key) || !strings.Contains(acc.Result, acc.Key) {
		t.Fatalf("accepted body: %+v", acc)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := getJSON(t, ts.URL+acc.Result)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async campaign never became fetchable")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Client-side validation errors come back as 400 with a JSON error body.
func TestHTTPBadRequests(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	cases := []struct {
		name, body string
	}{
		{"unknown app", `{"app":"NoSuchApp","grid":{"procs":[2],"ns":[64]}}`},
		{"invalid grid", `{"app":"Kripke","grid":{"procs":[],"ns":[64]}}`},
		{"bad fault spec", `{"app":"Kripke","grid":{"procs":[2],"ns":[64]},"faults":"gibberish"}`},
		{"malformed json", `{"app":`},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/campaigns", tc.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q not structured", tc.name, body)
		}
	}
	// Bad key formats on the key-addressed routes.
	for _, path := range []string{"/v1/campaigns/zzzz", "/v1/jobs/zzzz"} {
		resp, _ := getJSON(t, ts.URL+path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
	// A well-formed but unknown key is 404.
	unknown := strings.Repeat("ab", 32)
	resp, _ := getJSON(t, ts.URL+"/v1/campaigns/"+unknown)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: status %d, want 404", resp.StatusCode)
	}
}

// Queue-full and rate-limit sheds surface as 503/429 with Retry-After.
func TestHTTPShedStatuses(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	defer close(stub.gate)
	s, ts := newHTTPServer(t, Options{
		Runner:      stub,
		Queue:       1,
		TenantRate:  0.001, // every tenant has burst tokens, then a long wait
		TenantBurst: 1,
	})
	_ = s

	// First submission from tenant A occupies the only queue slot.
	resp, body := postJSON(t, ts.URL+"/v1/campaigns",
		`{"app":"Kripke","grid":{"procs":[2],"ns":[64],"seed":1},"wait":false}`,
		map[string]string{"X-Tenant": "a"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, body)
	}

	// Tenant A is now out of burst tokens: 429 with Retry-After.
	resp429, body429 := postJSON(t, ts.URL+"/v1/campaigns",
		`{"app":"Kripke","grid":{"procs":[2],"ns":[64],"seed":2},"wait":false}`,
		map[string]string{"X-Tenant": "a"})
	if resp429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited submit: status %d: %s", resp429.StatusCode, body429)
	}
	if resp429.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var eb429 errorBody
	if err := json.Unmarshal(body429, &eb429); err != nil || eb429.RetryAfterSeconds <= 0 {
		t.Errorf("429 body %q lacks retry_after_seconds", body429)
	}

	// Tenant B has tokens but the queue is full: 503 with Retry-After.
	resp503, body503 := postJSON(t, ts.URL+"/v1/campaigns",
		`{"app":"Kripke","grid":{"procs":[2],"ns":[64],"seed":3},"wait":false}`,
		map[string]string{"X-Tenant": "b"})
	if resp503.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-full submit: status %d: %s", resp503.StatusCode, body503)
	}
	if resp503.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
}

// A sync submission that outlives its deadline is a 504.
func TestHTTPDeadline(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	defer close(stub.gate)
	_, ts := newHTTPServer(t, Options{Runner: stub, RequestTimeout: 50 * time.Millisecond})
	resp, body := postJSON(t, ts.URL+"/v1/campaigns", submitBody(1), nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
}

// TimeoutSeconds in the body tightens the deadline below the server cap.
func TestHTTPPerRequestTimeout(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	defer close(stub.gate)
	_, ts := newHTTPServer(t, Options{Runner: stub, RequestTimeout: time.Minute})
	start := time.Now()
	resp, _ := postJSON(t, ts.URL+"/v1/campaigns",
		`{"app":"Kripke","grid":{"procs":[2],"ns":[64],"seed":1},"timeout_seconds":0.05}`, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("per-request timeout was not applied")
	}
}

// Health/readiness endpoints track the drain state machine, and /metrics
// serves the registry snapshot.
func TestHTTPHealthReadyMetricsDrain(t *testing.T) {
	stub := &stubRunner{}
	s, ts := newHTTPServer(t, Options{Runner: stub, DrainTimeout: time.Second})

	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("serving")) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, _ = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while serving: %d", resp.StatusCode)
	}

	// One request so the metrics snapshot has server counters.
	postJSON(t, ts.URL+"/v1/campaigns",
		`{"app":"Kripke","grid":{"procs":[2],"ns":[64],"seed":1},"wait":false}`, nil)
	resp, body = getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters[obs.MetricServerRequests] == 0 {
		t.Errorf("metrics missing %s: %s", obs.MetricServerRequests, body)
	}

	if err := s.Drain(nil); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, body = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("readyz 503 without Retry-After")
	}
	if !bytes.Contains(body, []byte("drained")) {
		t.Errorf("readyz body after drain: %s", body)
	}
	// Health stays 200 — the process is alive, just not admitting.
	resp, _ = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain: %d", resp.StatusCode)
	}
	// Submissions are rejected as 503 while drained.
	respSub, _ := postJSON(t, ts.URL+"/v1/campaigns", submitBody(5), nil)
	if respSub.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %d, want 503", respSub.StatusCode)
	}
}

// The watch=1 job stream emits SSE frames ending in a terminal snapshot.
func TestHTTPJobWatchStream(t *testing.T) {
	sched, err := campaign.New(campaign.Options{Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	s, ts := newHTTPServer(t, Options{Runner: sched})

	resp, body := postJSON(t, ts.URL+"/v1/campaigns", submitBody(11), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	key := resp.Header.Get("X-Campaign-Key")
	_ = s

	respW, err := http.Get(ts.URL + "/v1/jobs/" + key + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer respW.Body.Close()
	if ct := respW.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type %q", ct)
	}
	stream, err := io.ReadAll(respW.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(stream, []byte(`"state":"done"`)) {
		t.Fatalf("watch stream never reached done: %s", stream)
	}
}

// Oversized bodies are rejected before JSON parsing.
func TestHTTPBodyLimit(t *testing.T) {
	_, ts := newHTTPServer(t, Options{Runner: &stubRunner{}})
	big := `{"app":"Kripke","pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	resp, _ := postJSON(t, ts.URL+"/v1/campaigns", big, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

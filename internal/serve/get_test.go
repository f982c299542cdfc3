package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// postHit submits spec twice and returns the second (cache-hit) body and
// its campaign key.
func postHit(t *testing.T, url, spec string) ([]byte, string) {
	t.Helper()
	for i := 0; ; i++ {
		resp, body := postJSON(t, url+"/v1/campaigns", spec, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
		if i == 1 {
			return body, resp.Header.Get("X-Campaign-Key")
		}
	}
}

// GET /v1/campaigns/{key} of a fixed-grid campaign answers with the bytes
// a POST hit on the same key answers with: a campaign-entry hit reports
// the whole grid as reused on both routes.
func TestHTTPGetMatchesPostHit(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	hit, key := postHit(t, ts.URL, submitBody(11))
	resp, got := getJSON(t, ts.URL+"/v1/campaigns/"+key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, hit) {
		t.Errorf("GET body differs from the POST hit body:\n GET %s\nPOST %s", got, hit)
	}
	var out struct {
		PointsReused int `json:"points_reused"`
	}
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatal(err)
	}
	if out.PointsReused != 4 {
		t.Errorf("points_reused = %d, want the 2x2 grid", out.PointsReused)
	}
}

// For an adaptive key the entry holds the engine's selection, not the
// candidate grid, and GET reports that selection as reused, as a POST hit
// on the adaptive key does.
func TestHTTPGetAdaptiveReportsSelection(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	spec := `{"app":"Kripke","grid":{"procs":[2,4,8,16],"ns":[32,64,128,256],"seed":7},"adaptive":{}}`
	hit, key := postHit(t, ts.URL, spec)
	resp, got := getJSON(t, ts.URL+"/v1/campaigns/"+key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch: status %d: %s", resp.StatusCode, got)
	}
	var out struct {
		PointsReused int `json:"points_reused"`
		PointsSaved  int `json:"points_saved"`
		Report       struct {
			Configs int `json:"configs"`
		} `json:"report"`
	}
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatal(err)
	}
	if out.Report.Configs == 0 || out.Report.Configs >= 16 {
		t.Fatalf("adaptive entry selected %d of 16 points", out.Report.Configs)
	}
	if out.PointsReused != out.Report.Configs {
		t.Errorf("points_reused = %d, want the selection of %d", out.PointsReused, out.Report.Configs)
	}
	if out.PointsReused+out.PointsSaved != 16 {
		t.Errorf("reused %d + saved %d does not cover the 16-point grid", out.PointsReused, out.PointsSaved)
	}
	if !bytes.Equal(got, hit) {
		t.Errorf("GET body differs from the adaptive POST hit body:\n GET %s\nPOST %s", got, hit)
	}
}

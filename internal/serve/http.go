package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"extrareq/internal/adaptive"
	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/modeling"
	"extrareq/internal/simmpi"
	"extrareq/internal/workload"
)

// HTTP/JSON surface of the server. Routes:
//
//	POST /v1/campaigns            submit a campaign spec (blocks; wait=false for async)
//	GET  /v1/campaigns/{key}      fetch a finished campaign from the cache
//	GET  /v1/campaigns/{key}/models  fit and fetch the Table II requirement models
//	GET  /v1/jobs/{key}           poll progress (watch=1 streams snapshots)
//	GET  /v1/points/{key}         fetch one raw cache entry (point or campaign)
//	PUT  /v1/points/{key}         publish one raw cache entry (idempotent)
//	GET  /healthz                 liveness (always 200 while the process runs)
//	GET  /readyz                  readiness (503 only while draining; degraded-but-serving is 200 with a status body)
//	GET  /metrics                 obs registry snapshot as JSON
//
// The /v1/points pair is the remote point-store protocol spoken by
// campaign.RemoteStore: peers without a shared filesystem shard one
// campaign's measurements by reading and publishing content-addressed
// entries here. Keys are content hashes, so PUT is idempotent (racing
// writers carry identical bytes) and a GET body can never go stale —
// the entry's key IS its ETag, and If-None-Match gets a body-free 304.
// Successful POST /v1/campaigns responses carry points_reused /
// points_measured so clients can see how much of the campaign was
// assembled from the cache versus executed (see campaign.OutcomeBody);
// the same split appears live in /v1/jobs snapshots.
//
// Tenancy is declared per request with the X-Tenant header (default
// "default"); admission control buckets by that name.

// maxBodyBytes bounds a submission body; campaign specs are tiny.
const maxBodyBytes = 1 << 20

// SubmitRequest is the JSON body of POST /v1/campaigns.
type SubmitRequest struct {
	// App names the proxy application (apps.Names).
	App string `json:"app"`
	// Grid is the measurement grid; all fields as in workload.Grid.
	Grid workload.Grid `json:"grid"`
	// Faults is a ParseFaultSpec string ("" = healthy system).
	Faults string `json:"faults,omitempty"`
	// Retries and MinPoints mirror the Run API options.
	Retries   int `json:"retries,omitempty"`
	MinPoints int `json:"min_points,omitempty"`
	// TimeoutSeconds optionally tightens this waiter's deadline below the
	// server's request timeout.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Wait, when false, makes the submission fire-and-forget: the response
	// is 202 with the key to poll. Default true.
	Wait *bool `json:"wait,omitempty"`
	// Adaptive, when present, switches the submission to model-driven grid
	// refinement: the grid becomes the candidate space and only the most
	// informative configurations are measured (internal/adaptive). An empty
	// object selects the documented defaults.
	Adaptive *AdaptiveSubmit `json:"adaptive,omitempty"`
}

// AdaptiveSubmit is the wire form of adaptive.Options. Zero fields select
// the engine defaults, which are resolved from the full grid size before
// the coalescing key is computed — so an explicit default and an omitted
// field coalesce onto the same flight.
type AdaptiveSubmit struct {
	BatchSize    int     `json:"batch_size,omitempty"`
	MaxPoints    int     `json:"max_points,omitempty"`
	Improvement  float64 `json:"improvement,omitempty"`
	StableRounds int     `json:"stable_rounds,omitempty"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error             string  `json:"error"`
	State             string  `json:"state,omitempty"`
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns/{key}", s.handleGet)
	mux.HandleFunc("GET /v1/campaigns/{key}/models", s.handleModels)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleJob)
	mux.HandleFunc("GET /v1/points/{key}", s.handlePointGet)
	mux.HandleFunc("PUT /v1/points/{key}", s.handlePointPut)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sub SubmitRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, fmt.Sprintf("reading body: %v", err))
		return
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, 0, "request body exceeds 1 MiB")
		return
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		writeError(w, http.StatusBadRequest, 0, fmt.Sprintf("malformed JSON: %v", err))
		return
	}
	req, err := s.buildRequest(sub)
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	var aopts *adaptive.Options
	if sub.Adaptive != nil {
		aopts = &adaptive.Options{
			BatchSize:    sub.Adaptive.BatchSize,
			MaxPoints:    sub.Adaptive.MaxPoints,
			Improvement:  sub.Adaptive.Improvement,
			StableRounds: sub.Adaptive.StableRounds,
		}
	}

	if sub.Wait != nil && !*sub.Wait {
		key, err := s.Start(tenant, req, aopts)
		if err != nil {
			s.writeSubmitError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{
			"key":      key.String(),
			"progress": "/v1/jobs/" + key.String(),
			"result":   "/v1/campaigns/" + key.String(),
		})
		return
	}

	timeout := s.opts.RequestTimeout
	if sub.TimeoutSeconds > 0 {
		if t := time.Duration(sub.TimeoutSeconds * float64(time.Second)); t < timeout {
			timeout = t
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	res, err := s.Do(ctx, tenant, req, aopts)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Campaign-Key", res.Outcome.Key.String())
	w.Header().Set("X-Coalesced", strconv.FormatBool(res.Coalesced))
	w.Write(res.Body)
}

// buildRequest turns the wire spec into a campaign.Request, validating
// everything a client can get wrong so admission never sees junk.
func (s *Server) buildRequest(sub SubmitRequest) (campaign.Request, error) {
	app, ok := apps.ByName(sub.App)
	if !ok {
		return campaign.Request{}, fmt.Errorf("unknown application %q (have %v)", sub.App, apps.Names())
	}
	if err := sub.Grid.Validate(); err != nil {
		return campaign.Request{}, err
	}
	req := campaign.Request{
		App:       app,
		Grid:      sub.Grid,
		Retries:   sub.Retries,
		MinPoints: sub.MinPoints,
	}
	if sub.Faults != "" {
		plan, err := simmpi.ParseFaultSpec(sub.Faults)
		if err != nil {
			return campaign.Request{}, err
		}
		req.Faults = plan
	}
	return req, nil
}

// writeSubmitError maps the typed service errors onto HTTP: sheds become
// 429/503 with Retry-After, deadlines 504, everything else 500.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		status := http.StatusServiceUnavailable // queue full, draining
		if errors.Is(shed.Reason, ErrRateLimited) {
			status = http.StatusTooManyRequests
		}
		writeError(w, status, shed.RetryAfter, shed.Reason.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, 0, "campaign did not finish within the request deadline")
	case errors.Is(err, context.Canceled):
		// The client is gone; the status code is a formality.
		writeError(w, 499, 0, "request cancelled")
	default:
		writeError(w, http.StatusInternalServerError, 0, err.Error())
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key, c, rep, ok := s.lookupKey(w, r)
	if !ok {
		return
	}
	// A campaign-entry hit reports every configuration the entry holds as
	// reused: the grid of a fixed-grid campaign, the selection of an
	// adaptive one.
	body, err := campaign.EncodeOutcome(&campaign.Outcome{Campaign: c, Report: rep, Key: key,
		CacheHit: true, PointsReused: rep.Configs})
	if err != nil {
		writeError(w, http.StatusInternalServerError, 0, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// modelBody is one fitted requirement model on the wire.
type modelBody struct {
	Model    string  `json:"model"`
	CVScore  float64 `json:"cv_smape"`
	SMAPE    float64 `json:"smape"`
	RSquared float64 `json:"r_squared"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	key, c, _, ok := s.lookupKey(w, r)
	if !ok {
		return
	}
	// Small campaigns (below the paper's 5-points-per-parameter rule of
	// thumb) still deserve an answer over HTTP; lower the floor to the
	// distinct values the samples hold. The grid's axis lengths overstate
	// them when axis values repeat, when an adaptive run measured a subset,
	// or when points were quarantined.
	ps, ns := map[int]bool{}, map[int]bool{}
	for _, smp := range c.Samples {
		ps[smp.P], ns[smp.N] = true, true
	}
	fitOpts := modeling.DefaultOptions()
	fitOpts.MinPoints = min(fitOpts.MinPoints, len(ps), len(ns))
	fits, _, err := workload.FitAllObserved([]*workload.Campaign{c}, fitOpts, 0, nil, s.opts.Metrics)
	if err != nil {
		writeError(w, http.StatusInternalServerError, 0, fmt.Sprintf("fitting models: %v", err))
		return
	}
	models := map[string]modelBody{}
	for m, info := range fits[0].Info {
		models[m.String()] = modelBody{
			Model:    info.Model.String(),
			CVScore:  sanitize(info.CVScore),
			SMAPE:    sanitize(info.SMAPE),
			RSquared: sanitize(info.RSquared),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"key":    key.String(),
		"app":    c.App,
		"models": models,
	})
}

// sanitize maps NaN/Inf statistics (possible on degenerate series) to 0 so
// the response stays valid JSON.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	key, err := campaign.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	if r.URL.Query().Get("watch") != "" {
		s.watchJob(w, r, key)
		return
	}
	st, ok := s.Job(r.Context(), key)
	if !ok {
		writeError(w, http.StatusNotFound, 0, "no active flight or cached result for key")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// watchJob streams progress snapshots as server-sent events until the job
// finishes or the client disconnects. Every emitted snapshot is a legal
// successor of the previous one (ValidateProgress): a snapshot torn
// between two counter updates is skipped — the next tick carries a
// consistent one — so clients never watch progress move backwards.
func (s *Server) watchJob(w http.ResponseWriter, r *http.Request, key campaign.Key) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, 0, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	var prev JobStatus
	emitted := false
	for {
		st, ok := s.Job(r.Context(), key)
		if !ok {
			fmt.Fprintf(w, "event: gone\ndata: {}\n\n")
			flusher.Flush()
			return
		}
		final := st.State == "done" || st.Cached
		if emitted && !final {
			if err := ValidateProgress(prev, st); err != nil {
				select {
				case <-r.Context().Done():
					return
				case <-ticker.C:
				}
				continue
			}
		}
		data, _ := json.Marshal(st)
		fmt.Fprintf(w, "data: %s\n\n", data)
		flusher.Flush()
		prev, emitted = st, true
		if final {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// handlePointGet serves one raw cache entry for the remote point-store
// protocol. The entry's content-hash key doubles as a strong ETag: a
// client that already holds the bytes sends If-None-Match and gets a
// body-free 304, which matters when polling peers over slow links.
// Entries of both granularities are served — peers write campaign
// entries through the same store as point entries.
func (s *Server) handlePointGet(w http.ResponseWriter, r *http.Request) {
	key, err := campaign.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	// The sharding smoke reconciles shard traffic against the points
	// counters.
	s.red.PointsGet.Inc()
	etag := `"` + key.String() + `"`
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, etag) {
		// Content-addressed entries are immutable: holding any version of
		// the bytes means holding the current one.
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, ok := s.opts.Runner.LookupEntry(r.Context(), key)
	if !ok {
		writeError(w, http.StatusNotFound, 0, "no cache entry for key")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	w.Write(data)
}

// handlePointPut accepts one raw cache entry from a peer. The write is
// idempotent — the key is a content hash, so racing writers carry the
// same bytes and re-publishing is harmless — and validated: bytes that do
// not decode under the key (garbage, stale KeyVersion, mismatched hash)
// are rejected with 422 so one confused peer cannot poison the shared
// cache. Success is 204.
func (s *Server) handlePointPut(w http.ResponseWriter, r *http.Request) {
	key, err := campaign.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	s.red.PointsPut.Inc()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, fmt.Sprintf("reading body: %v", err))
		return
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, 0, "cache entry exceeds 1 MiB")
		return
	}
	if err := s.opts.Runner.PutEntry(r.Context(), key, body); err != nil {
		writeError(w, http.StatusUnprocessableEntity, 0, fmt.Sprintf("rejected cache entry: %v", err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// etagMatches implements the slice of If-None-Match we need: a literal
// match against the quoted key, any member of a comma-separated list, or
// the wildcard.
func etagMatches(header, etag string) bool {
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(part), "W/") == etag {
			return true
		}
	}
	return false
}

// lookupKey resolves the {key} path segment against the cache, writing the
// 400/404 itself on failure.
func (s *Server) lookupKey(w http.ResponseWriter, r *http.Request) (campaign.Key, *workload.Campaign, *workload.CampaignReport, bool) {
	key, err := campaign.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, err.Error())
		return campaign.Key{}, nil, nil, false
	}
	data, ok := s.opts.Runner.Lookup(r.Context(), key)
	if !ok {
		writeError(w, http.StatusNotFound, 0, "no cached campaign for key")
		return campaign.Key{}, nil, nil, false
	}
	c, rep, err := campaign.Decode(key, data)
	if err != nil {
		writeError(w, http.StatusInternalServerError, 0, fmt.Sprintf("corrupt cache entry: %v", err))
		return campaign.Key{}, nil, nil, false
	}
	return key, c, rep, true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"state\":%q}\n", s.State())
}

// handleReady reports readiness. Only the drain lifecycle makes the
// server unready (503): a degraded persistence tier — writes latched off
// after a disk failure, a remote breaker open — still serves campaigns
// correctly, just without the broken tier's benefit, so those states
// answer 200 with a status body naming the degradation. Operators (and
// load balancers) can thus tell "take it out of rotation" from "keep
// sending traffic, but someone should look at the cache".
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	state := s.State()
	st := s.opts.Runner.StoreStatus()
	w.Header().Set("Content-Type", "application/json")
	if state != StateServing {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{
		"state":           state.String(),
		"store":           st.Kind,
		"degraded":        st.Degraded(),
		"writes_degraded": st.WritesDegraded,
		"breaker_open":    st.BreakerOpen,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.opts.Metrics == nil {
		w.Write([]byte("{}\n"))
		return
	}
	s.opts.Metrics.WriteJSON(w)
}

// writeError emits the uniform JSON error body, with a Retry-After header
// when the client should back off and try again.
func writeError(w http.ResponseWriter, status int, retryAfter time.Duration, msg string) {
	w.Header().Set("Content-Type", "application/json")
	body := errorBody{Error: msg}
	if retryAfter > 0 {
		secs := math.Ceil(retryAfter.Seconds())
		w.Header().Set("Retry-After", strconv.Itoa(int(secs)))
		body.RetryAfterSeconds = secs
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

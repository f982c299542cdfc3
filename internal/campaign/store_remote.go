package campaign

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"context"

	"extrareq/internal/obs"
)

// RemoteStore is a Store backed by a peer speaking the reqserve point
// protocol:
//
//	GET /v1/points/{key}  → 200 body | 304 (If-None-Match) | 404
//	PUT /v1/points/{key}  → 204
//
// Keys are content hashes, so PUT is idempotent — racing writers carry
// identical bytes and the last rename wins server-side — and a GET body
// can never go stale, which is why the protocol leans on ETag (the key
// itself) rather than cache-control heuristics. The client is built for
// campaigns that must never stall on a sick remote:
//
//   - every request runs under a per-request deadline derived from the
//     caller's context;
//   - transport errors and 5xx responses are retried with exponential
//     backoff, a bounded number of times;
//   - a circuit breaker opens after consecutive failures, turning loads
//     into instant misses and dropping stores until a cool-down expires,
//     after which a single probe is allowed through (half-open);
//   - Store never returns an error: a failed or suppressed write is
//     counted (store_remote_error / store_remote_dropped) and dropped,
//     because a remote blip must degrade the campaign to local-only
//     execution, not latch the Scheduler's writes off for its lifetime.
//
// Keys confirmed present on the remote (a successful GET or PUT) are
// remembered in a bounded set so re-publishing the same entry — common
// when overlapping campaigns each finish and store the points they share
// — skips the redundant body entirely.
type RemoteStore struct {
	base    string // ".../v1/points/" with trailing slash
	client  *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
	metrics *obs.RemoteStore
	logf    func(format string, args ...any)
	sleep   func(time.Duration)
	br      *breaker

	mu    sync.Mutex
	known map[Key]struct{} // keys confirmed present on the remote
}

// RemoteOptions configures NewRemoteStore; the zero value selects the
// defaults documented per field.
type RemoteOptions struct {
	// Timeout bounds each individual HTTP attempt; <= 0 selects
	// DefaultRemoteTimeout. The caller's context still applies on top.
	Timeout time.Duration
	// Retries is how many extra attempts a failed request gets (transport
	// errors and 5xx only — a 404 is an answer, not a failure). < 0
	// disables retries; 0 selects DefaultRemoteRetries.
	Retries int
	// Backoff is the first retry's delay, doubling per attempt; <= 0
	// selects DefaultRemoteBackoff.
	Backoff time.Duration
	// BreakerThreshold is how many consecutive failed operations open the
	// circuit; <= 0 selects DefaultBreakerThreshold.
	BreakerThreshold int
	// BreakerCooldown is how long the circuit stays open before one probe
	// is allowed through; <= 0 selects DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// Metrics receives the store_remote_* instruments; nil disables them.
	Metrics *obs.Registry
	// Client replaces http.DefaultClient (tests inject httptest clients).
	Client *http.Client
	// Logf receives the rare operational warnings (breaker transitions).
	// nil selects log.Printf.
	Logf func(format string, args ...any)
	// now and sleep replace the clocks in tests.
	now   func() time.Time
	sleep func(time.Duration)
}

// Remote store defaults.
const (
	DefaultRemoteTimeout    = 5 * time.Second
	DefaultRemoteRetries    = 2
	DefaultRemoteBackoff    = 50 * time.Millisecond
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 10 * time.Second
	// maxKnownKeys bounds the confirmed-present set; beyond it the set is
	// reset rather than evicted piecemeal — re-sending a body the remote
	// already has is harmless (PUT is idempotent), forgetting is cheap.
	maxKnownKeys = 1 << 14
	// maxRemoteEntryBytes bounds a GET response body; entries are JSON
	// documents of at most a few hundred KB even for large grids.
	maxRemoteEntryBytes = 8 << 20
)

// NewRemoteStore builds a remote store against baseURL (the peer's root,
// e.g. "http://cachehost:8080"; the /v1/points path is appended).
func NewRemoteStore(baseURL string, o RemoteOptions) (*RemoteStore, error) {
	u, err := url.Parse(baseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("campaign: remote store URL %q: want http(s)://host[:port]", baseURL)
	}
	if o.Timeout <= 0 {
		o.Timeout = DefaultRemoteTimeout
	}
	if o.Retries == 0 {
		o.Retries = DefaultRemoteRetries
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultRemoteBackoff
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	client := o.Client
	if client == nil {
		client = http.DefaultClient
	}
	logf := o.Logf
	if logf == nil {
		logf = log.Printf
	}
	now := o.now
	if now == nil {
		now = time.Now
	}
	sleep := o.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	m := obs.NewRemoteStore(o.Metrics)
	return &RemoteStore{
		base:    strings.TrimRight(u.String(), "/") + "/v1/points/",
		client:  client,
		timeout: o.Timeout,
		retries: o.Retries,
		backoff: o.Backoff,
		metrics: m,
		logf:    logf,
		sleep:   sleep,
		br: &breaker{
			threshold: o.BreakerThreshold,
			cooldown:  o.BreakerCooldown,
			now:       now,
			metrics:   m,
			logf:      logf,
		},
		known: map[Key]struct{}{},
	}, nil
}

// Status reports the remote tier's breaker state.
func (s *RemoteStore) Status() StoreStatus {
	return StoreStatus{Kind: "remote", BreakerOpen: s.br.open()}
}

// BreakerOpen reports whether the circuit breaker is currently open.
func (s *RemoteStore) BreakerOpen() bool { return s.br.open() }

// Load fetches the entry for k from the remote. Absence (404), transport
// failure after retries, and an open breaker all degrade to ok=false —
// the Scheduler then measures the point itself, which is the whole
// degradation story: a dead remote costs extra measurement, never a
// failed campaign.
func (s *RemoteStore) Load(ctx context.Context, k Key) ([]byte, bool) {
	if !s.br.allow() {
		s.metrics.Miss.Inc()
		return nil, false
	}
	start := time.Now()
	data, found, err := s.do(ctx, k, nil)
	s.metrics.Seconds.Observe(time.Since(start).Seconds())
	if err != nil {
		s.br.failure()
		s.metrics.Error.Inc()
		s.metrics.Miss.Inc()
		return nil, false
	}
	s.br.success()
	if !found {
		s.metrics.Miss.Inc()
		return nil, false
	}
	s.markKnown(k)
	s.metrics.Hit.Inc()
	return data, true
}

// Store uploads the entry under k unless the remote is already confirmed
// to have it. Failures are absorbed: the write is counted as dropped (and
// as an error when it actually went out and failed) and the campaign
// proceeds on local state alone. Store therefore always returns nil — the
// Scheduler's write-degradation latch is for permanently broken stores,
// and a remote that is down now may be back in a minute; the breaker
// handles that cadence.
func (s *RemoteStore) Store(ctx context.Context, k Key, data []byte) error {
	if s.isKnown(k) {
		return nil // the remote has these exact bytes; skip the body
	}
	if !s.br.allow() {
		s.metrics.Dropped.Inc()
		return nil
	}
	start := time.Now()
	_, _, err := s.do(ctx, k, data)
	s.metrics.Seconds.Observe(time.Since(start).Seconds())
	if err != nil {
		s.br.failure()
		s.metrics.Error.Inc()
		s.metrics.Dropped.Inc()
		return nil
	}
	s.br.success()
	s.markKnown(k)
	return nil
}

// Sync is a no-op: every Store call is synchronous through to the remote
// (or deliberately dropped), so there is nothing buffered to flush.
func (s *RemoteStore) Sync(context.Context) error { return nil }

// do performs one logical operation with retries: a GET when data is nil,
// a PUT otherwise. It returns found=false for a 404, an error for
// transport failures and non-2xx statuses that survived the retry budget.
func (s *RemoteStore) do(ctx context.Context, k Key, data []byte) (body []byte, found bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	backoff := s.backoff
	for attempt := 0; ; attempt++ {
		body, found, retryable, aerr := s.attempt(ctx, k, data)
		if aerr == nil {
			return body, found, nil
		}
		err = aerr
		if !retryable || attempt >= s.retries || ctx.Err() != nil {
			return nil, false, err
		}
		s.sleep(backoff)
		backoff *= 2
	}
}

// attempt is one HTTP round trip. retryable distinguishes 5xx/transport
// failures (worth another attempt) from everything else.
func (s *RemoteStore) attempt(ctx context.Context, k Key, data []byte) (body []byte, found, retryable bool, err error) {
	actx, cancel := context.WithTimeout(ctx, s.timeout)
	defer cancel()
	var req *http.Request
	if data == nil {
		req, err = http.NewRequestWithContext(actx, http.MethodGet, s.base+k.String(), nil)
	} else {
		req, err = http.NewRequestWithContext(actx, http.MethodPut, s.base+k.String(), bytes.NewReader(data))
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return nil, false, false, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, false, true, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, false, false, nil
	case resp.StatusCode >= 500:
		return nil, false, true, fmt.Errorf("campaign: remote store: %s %s: %s",
			req.Method, k, resp.Status)
	case resp.StatusCode >= 300:
		// 4xx (and the unsolicited 304): a protocol disagreement, not an
		// outage — retrying the same request cannot help.
		return nil, false, false, fmt.Errorf("campaign: remote store: %s %s: %s",
			req.Method, k, resp.Status)
	}
	if data != nil {
		return nil, true, false, nil // PUT 2xx: nothing to read
	}
	body, err = io.ReadAll(io.LimitReader(resp.Body, maxRemoteEntryBytes+1))
	if err != nil {
		return nil, false, true, err
	}
	if len(body) > maxRemoteEntryBytes {
		return nil, false, false, fmt.Errorf("campaign: remote store: entry %s exceeds %d bytes", k, maxRemoteEntryBytes)
	}
	return body, true, false, nil
}

func (s *RemoteStore) isKnown(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.known[k]
	return ok
}

func (s *RemoteStore) markKnown(k Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.known) >= maxKnownKeys {
		s.known = map[Key]struct{}{}
	}
	s.known[k] = struct{}{}
}

// breaker is a consecutive-failure circuit breaker. Closed passes
// everything; threshold consecutive failures open it; after cooldown one
// probe is allowed (half-open) — its success closes the circuit, its
// failure re-opens it for another cooldown.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	metrics   *obs.RemoteStore
	logf      func(format string, args ...any)

	failures int
	isOpen   bool
	probing  bool
	openedAt time.Time
}

// allow reports whether an operation may reach the remote right now.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.isOpen {
		return true
	}
	if b.now().Sub(b.openedAt) >= b.cooldown && !b.probing {
		b.probing = true // half-open: exactly one probe per cooldown
		return true
	}
	return false
}

// success records a completed operation, closing the circuit.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	wasOpen := b.isOpen
	b.failures = 0
	b.isOpen = false
	b.probing = false
	if wasOpen {
		b.metrics.BreakerOpen.Set(0)
		b.logf("campaign: remote store recovered, circuit closed")
	}
}

// failure records a failed operation, opening the circuit at the
// threshold (or immediately when a half-open probe fails).
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	reopen := b.probing
	b.probing = false
	if b.isOpen {
		if reopen {
			b.openedAt = b.now() // failed probe: restart the cooldown
		}
		return
	}
	if b.failures >= b.threshold {
		b.isOpen = true
		b.openedAt = b.now()
		b.metrics.BreakerOpen.Set(1)
		b.metrics.BreakerOpens.Inc()
		b.logf("campaign: remote store circuit opened after %d consecutive failures (cooldown %s)",
			b.failures, b.cooldown)
	}
}

// open reports the breaker state.
func (b *breaker) open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.isOpen
}

package obs

// Remote point-store instruments. The campaign scheduler's persistence
// seam can be an HTTP client talking to a peer reqserve (or any server
// speaking the /v1/points protocol); unlike the local disk tier, that
// path has real failure modes — slow networks, 5xx bursts, partitions —
// that operators must be able to see without reading logs. RemoteStore
// follows the RED pattern used for the server instruments: resolve once,
// update with single atomics; a store built without a registry holds nil
// instruments, whose updates do nothing.

// Metric names of the remote point-store instruments.
const (
	// MetricStoreRemoteHit counts remote loads that returned an entry.
	MetricStoreRemoteHit = "store_remote_hit"
	// MetricStoreRemoteMiss counts remote loads answered 404 (the entry
	// does not exist remotely) or degraded to a miss by the breaker.
	MetricStoreRemoteMiss = "store_remote_miss"
	// MetricStoreRemoteError counts remote operations that failed after
	// exhausting their retry budget (transport errors, 5xx, timeouts).
	MetricStoreRemoteError = "store_remote_error"
	// MetricStoreRemoteDropped counts writes dropped instead of sent:
	// breaker open, write-behind queue full, or store closed.
	MetricStoreRemoteDropped = "store_remote_dropped"
	// MetricStoreRemoteSeconds is the per-operation latency histogram
	// (seconds), covering retries within one logical Load/Store.
	MetricStoreRemoteSeconds = "store_remote_seconds"
	// MetricStoreRemoteBreakerOpen gauges the circuit breaker: 1 while
	// open (remote traffic suppressed), 0 while closed or probing.
	MetricStoreRemoteBreakerOpen = "store_remote_breaker_open"
	// MetricStoreRemoteBreakerOpens counts closed/half-open → open
	// transitions, so flapping remotes are visible even when the gauge
	// reads 0 at scrape time.
	MetricStoreRemoteBreakerOpens = "store_remote_breaker_opens"
)

// RemoteStoreSecondsEdges is the bucket layout of MetricStoreRemoteSeconds:
// 100µs to ~26s in x4 steps, matching RequestSecondsEdges so client- and
// server-side latencies line up in dashboards.
func RemoteStoreSecondsEdges() []float64 { return ExpEdges(1e-4, 4, 10) }

// RemoteStore bundles the remote point-store instruments, resolved once
// by NewRemoteStore; each field updates the MetricStoreRemote* metric of
// the same name.
type RemoteStore struct {
	Hit, Miss, Error, Dropped, BreakerOpens *Counter
	Seconds                                 *Histogram
	BreakerOpen                             *Gauge
}

// NewRemoteStore resolves the remote-store instruments in reg; from a nil
// reg every instrument is nil and every update a no-op.
func NewRemoteStore(reg *Registry) *RemoteStore {
	return &RemoteStore{
		Hit:          reg.Counter(MetricStoreRemoteHit),
		Miss:         reg.Counter(MetricStoreRemoteMiss),
		Error:        reg.Counter(MetricStoreRemoteError),
		Dropped:      reg.Counter(MetricStoreRemoteDropped),
		Seconds:      reg.Histogram(MetricStoreRemoteSeconds, RemoteStoreSecondsEdges()),
		BreakerOpen:  reg.Gauge(MetricStoreRemoteBreakerOpen),
		BreakerOpens: reg.Counter(MetricStoreRemoteBreakerOpens),
	}
}

package obs

// Server-level RED metrics (rate, errors, duration) plus the queueing
// signals a campaign service needs to explain its own behavior under load:
// how deep the admission queue is, how much duplicate work was coalesced
// away, and how many requests were shed instead of queued unboundedly.
// The RED type resolves the instruments once; a server built without a
// registry holds nil instruments, whose updates do nothing.

// Metric names of the server-level RED instruments.
const (
	// MetricServerRequests counts every submission that reached admission
	// (accepted or shed).
	MetricServerRequests = "server_requests_total"
	// MetricServerErrors counts submissions that finished with an error
	// (campaign failures, cancelled waiters — not sheds).
	MetricServerErrors = "server_errors_total"
	// MetricServerShed counts submissions rejected by admission control:
	// queue full, tenant over rate, or server draining.
	MetricServerShed = "server_shed_total"
	// MetricServerCoalesced counts submissions that attached to an
	// already-running identical campaign instead of starting their own.
	MetricServerCoalesced = "server_coalesce_hits"
	// MetricServerQueueDepth gauges flights admitted but not yet finished.
	MetricServerQueueDepth = "server_queue_depth"
	// MetricServerInflight gauges campaign executions currently running.
	MetricServerInflight = "server_inflight"
	// MetricServerLatency is the per-request latency histogram (seconds),
	// measured from admission to response.
	MetricServerLatency = "server_request_seconds"
	// MetricServerPointsGet counts well-keyed GET /v1/points/{key}
	// requests, the remote point-store reads peers send.
	MetricServerPointsGet = "server_points_get_total"
	// MetricServerPointsPut counts well-keyed PUT /v1/points/{key}
	// requests, the remote point-store writes peers send.
	MetricServerPointsPut = "server_points_put_total"
)

// RequestSecondsEdges is the bucket layout of the server request-latency
// histogram: 100µs to ~26s in x4 steps, matching workload.RunSecondsEdges
// so campaign and request latencies line up in dashboards.
func RequestSecondsEdges() []float64 { return ExpEdges(1e-4, 4, 10) }

// RED bundles the server instruments, resolved once by NewRED; each field
// updates the MetricServer* metric of the same name.
type RED struct {
	Requests, Errors, Shed, Coalesced *Counter
	PointsGet, PointsPut              *Counter
	QueueDepth, Inflight              *Gauge
	Latency                           *Histogram
}

// NewRED resolves the server instruments in reg; from a nil reg every
// instrument is nil and every update a no-op.
func NewRED(reg *Registry) *RED {
	return &RED{
		Requests:   reg.Counter(MetricServerRequests),
		Errors:     reg.Counter(MetricServerErrors),
		Shed:       reg.Counter(MetricServerShed),
		Coalesced:  reg.Counter(MetricServerCoalesced),
		PointsGet:  reg.Counter(MetricServerPointsGet),
		PointsPut:  reg.Counter(MetricServerPointsPut),
		QueueDepth: reg.Gauge(MetricServerQueueDepth),
		Inflight:   reg.Gauge(MetricServerInflight),
		Latency:    reg.Histogram(MetricServerLatency, RequestSecondsEdges()),
	}
}

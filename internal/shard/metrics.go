package shard

import "weaver/internal/obs"

// obsMetrics bundles the shard's observability handles, resolved once at
// construction (nil registry = every handle nil = every call a no-op).
// The shard contributes the tail of a transaction trace: wire_transfer
// (gatekeeper send instant → shard receipt, measured against the trace
// mark), shard_queue (receipt → apply start), and shard_apply.
type obsMetrics struct {
	tracer    *obs.Tracer
	queueWait *obs.Histogram // weaver_shard_queue_wait_seconds
	applyDur  *obs.Histogram // weaver_shard_apply_seconds
}

func newObsMetrics(r *obs.Registry) obsMetrics {
	return obsMetrics{
		tracer:    r.Tracer(),
		queueWait: r.LatencyHistogram("weaver_shard_queue_wait_seconds"),
		applyDur:  r.LatencyHistogram("weaver_shard_apply_seconds"),
	}
}

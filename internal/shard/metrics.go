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
	// Stale-snapshot refusals by cause: GC, or a record read back from the
	// store (a vertex's mark, the index's install horizon).
	staleGC       *obs.Counter // weaver_shard_stale_reads_gc_total
	staleInstall  *obs.Counter // weaver_shard_stale_reads_install_total
	recoverErrors *obs.Counter // weaver_shard_recover_errors_total (Stats.RecoverErrors)
	readRefines   *obs.Counter // weaver_shard_read_refines_total: concurrent writes shown to a read
	nopRequests   *obs.Counter // weaver_shard_nop_requests_total: NopRequests sent for parked reads
	// Version GC on the event loop (maybeGC): each collection pass, and the
	// retire-list entries (graph plus index) the last pass left pending.
	gcSweep   *obs.Histogram // weaver_shard_gc_sweep_seconds
	gcRetired *obs.Gauge     // weaver_shard_gc_retired
}

func newObsMetrics(r *obs.Registry) obsMetrics {
	return obsMetrics{
		tracer:        r.Tracer(),
		queueWait:     r.LatencyHistogram("weaver_shard_queue_wait_seconds"),
		applyDur:      r.LatencyHistogram("weaver_shard_apply_seconds"),
		staleGC:       r.Counter("weaver_shard_stale_reads_gc_total"),
		staleInstall:  r.Counter("weaver_shard_stale_reads_install_total"),
		recoverErrors: r.Counter("weaver_shard_recover_errors_total"),
		readRefines:   r.Counter("weaver_shard_read_refines_total"),
		nopRequests:   r.Counter("weaver_shard_nop_requests_total"),
		gcSweep:       r.LatencyHistogram("weaver_shard_gc_sweep_seconds"),
		gcRetired:     r.Gauge("weaver_shard_gc_retired"),
	}
}

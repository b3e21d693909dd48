package weaver

import "weaver/internal/obs"

// Observability: the cluster-level metrics surface. Every stage of the
// refinable-timestamp pipeline is instrumented (internal/obs) — commit
// admission, timestamp mint, OCC execute, oracle refinement wait, shard
// forward, wire transfer, shard queue and apply, WAL group commit — and
// surfaces three ways: the typed Metrics snapshot here, the weaverd
// -metrics-addr HTTP endpoint (Prometheus text + slow-op JSON + pprof),
// and the per-stage rows of the benchmark ledger (`go run ./benchmark`).
//
// Instrumentation is always on: counters and histogram buckets are single
// atomic adds that allocate nothing (obs.TestObsHotPathAllocatesNothing),
// and trace spans are sampled (Config.TraceSample).

// Metrics returns a point-in-time snapshot of every registered counter,
// gauge, and histogram.
func (c *Cluster) Metrics() obs.Snapshot {
	return c.obs.Snapshot()
}

// SlowOps returns up to n recently traced transactions, slowest first,
// each with its per-stage spans (gk_queue, gk_mint, gk_execute,
// oracle_refine, gk_store_commit, gk_forward, wire_transfer,
// shard_queue, shard_apply). Only sampled transactions appear
// (Config.TraceSample).
func (c *Cluster) SlowOps(n int) []obs.TraceSnapshot {
	return c.obs.Tracer().SlowOps(n)
}

// Observability exposes the cluster's metrics registry — the handle the
// weaverd HTTP endpoint serves, also useful for registering
// application-level gauges.
func (c *Cluster) Observability() *obs.Registry { return c.obs }

package gatekeeper

import "weaver/internal/obs"

// obsMetrics bundles the gatekeeper's observability handles, resolved
// once at construction so the hot path never touches the registry. With
// metrics disabled (nil registry) every handle is nil and every call
// no-ops — the sites below pay only their time.Now reads.
//
// Trace span names (all disjoint in time, so a trace's span durations
// sum to at most the end-to-end latency):
//
//	gk_queue        admission control + pause-gate wait
//	gk_mint         timestamp + FIFO slot reservation
//	gk_execute      backing-store read/validate/mutate
//	oracle_refine   the §4.2 last-update ordering check (proactive or
//	                reactive, see the two counters)
//	gk_store_commit backing-store OCC write-back + commit
//	gk_forward      write-set fan-out to the shards
//	wire_transfer   forward instant → shard receipt (shard-side)
//	shard_queue     shard receipt → apply start (shard-side)
//	shard_apply     the apply itself (shard-side)
type obsMetrics struct {
	tracer *obs.Tracer

	queueWait  *obs.Histogram // weaver_gk_queue_wait_seconds
	mint       *obs.Histogram // weaver_gk_mint_seconds
	store      *obs.Histogram // weaver_gk_store_commit_seconds (whole store tx)
	oracleWait *obs.Histogram // weaver_oracle_refine_wait_seconds
	forward    *obs.Histogram // weaver_gk_forward_seconds
	txTotal    *obs.Histogram // weaver_gk_commit_seconds (CommitTx end-to-end)
	hopFanout  *obs.Histogram // weaver_prog_hop_fanout (hops per shard send)
	lookupDur  *obs.Histogram // weaver_index_lookup_seconds (scatter-gather)

	// The §4 refinement split: touched-vertex ordering checks resolved
	// proactively by the vector clock vs. registered reactively with the
	// timeline oracle.
	proactive *obs.Counter // weaver_oracle_proactive_hits_total
	reactive  *obs.Counter // weaver_oracle_reactive_refines_total

	// Query-planner surfaces (internal/plan): how often plans are built
	// and fall back to broadcast, how many shards each query touches vs.
	// skips, and the marker upkeep behind it all.
	planBuild     *obs.Histogram // weaver_plan_build_seconds (marker catalog reads)
	plansBuilt    *obs.Counter   // weaver_plan_built_total
	planFallback  *obs.Counter   // weaver_plan_fallback_total (broadcast plans)
	planContacted *obs.Counter   // weaver_plan_shards_contacted_total
	planPruned    *obs.Counter   // weaver_plan_shards_pruned_total
	planRechecks  *obs.Counter   // weaver_plan_recheck_rounds_total (post-merge follow-ups)
	markerWrites  *obs.Counter   // weaver_plan_marker_writes_total
}

func newObsMetrics(r *obs.Registry) obsMetrics {
	return obsMetrics{
		tracer:     r.Tracer(),
		queueWait:  r.LatencyHistogram("weaver_gk_queue_wait_seconds"),
		mint:       r.LatencyHistogram("weaver_gk_mint_seconds"),
		store:      r.LatencyHistogram("weaver_gk_store_commit_seconds"),
		oracleWait: r.LatencyHistogram("weaver_oracle_refine_wait_seconds"),
		forward:    r.LatencyHistogram("weaver_gk_forward_seconds"),
		txTotal:    r.LatencyHistogram("weaver_gk_commit_seconds"),
		hopFanout:  r.SizeHistogram("weaver_prog_hop_fanout"),
		lookupDur:  r.LatencyHistogram("weaver_index_lookup_seconds"),
		proactive:  r.Counter("weaver_oracle_proactive_hits_total"),
		reactive:   r.Counter("weaver_oracle_reactive_refines_total"),

		planBuild:     r.LatencyHistogram("weaver_plan_build_seconds"),
		plansBuilt:    r.Counter("weaver_plan_built_total"),
		planFallback:  r.Counter("weaver_plan_fallback_total"),
		planContacted: r.Counter("weaver_plan_shards_contacted_total"),
		planPruned:    r.Counter("weaver_plan_shards_pruned_total"),
		planRechecks:  r.Counter("weaver_plan_recheck_rounds_total"),
		markerWrites:  r.Counter("weaver_plan_marker_writes_total"),
	}
}

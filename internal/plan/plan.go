// Package plan decides which shards a cross-shard index query contacts:
// marker-catalog pruning plus pushdown. Every query is a predicate
// conjunction that the contacted shards evaluate locally (predicates and
// limit are pushed down on the wire); the planner's only output is the
// shard set — the shards whose marker catalog admits a match for every
// equality predicate, or all of them when the conjunction has none.
// Weaver's own evaluation shows cross-shard coordination dominating read
// latency (§6), so not contacting a shard is the saving that matters.
//
// # Soundness: the value-presence marker catalog
//
// Pruning a shard is only sound if no posting visible at the query's
// snapshot can live there. Under Weaver's write-before-read rule (§4.1) a
// lookup sees timestamp-CONCURRENT writes, so no asynchronously published
// statistic can justify pruning — a transaction in flight right now may
// be adding the match the statistic does not know about. Soundness
// instead comes from monotone value-presence markers in the transactional
// backing store: one marker record per (key, value, shard) triple,
// written by every path that can place an indexed value on a shard —
// the commit path BEFORE the transaction's timestamp is minted, bulk
// ingest and migration under their cluster fences — and never deleted.
//
// The commit-path ordering gives the happens-before chain that makes
// equality pruning sound: marker-write < timestamp-mint for the writer,
// and query-timestamp-mint < catalog-read for the reader, with the
// backing store linearizable. Any transaction whose timestamp can be
// visible at the query snapshot either minted before the query (its
// marker-write finished even earlier, so the catalog read sees it) or
// races the query, in which case the gatekeeper's post-merge marker
// re-check (see Gatekeeper lookup) closes the window: markers that appear
// between planning and the gather trigger a follow-up round to the newly
// marked shards at the same read timestamp, so a racing transaction is
// observed either fully or not at all. Because markers only accrete,
// staleness is one-sided: a marker for a value no vertex carries anymore
// costs one empty-handed shard visit, never a missed match.
package plan

import (
	"strconv"
	"time"

	"weaver/internal/wire"
)

// MarkerPrefix is the backing-store key prefix of value-presence markers.
const MarkerPrefix = "ixm/"

// MarkerKey is the backing-store key of the (key, value, shard) marker.
// The delimiter is not escaped: a crafted key/value pair can only merge
// two triples into one marker, which widens the contacted shard set
// (false positive), never narrows it.
func MarkerKey(key, value string, shard int) string {
	return MarkerPrefix + key + "\x00" + value + "\x00" + strconv.Itoa(shard)
}

// MarkerReader answers point queries against the marker catalog. The
// gatekeeper implements it over the backing store with a positive-only
// cache (markers are monotone, so a positive never goes stale; negatives
// must always re-read).
type MarkerReader interface {
	HasValue(key, value string, shard int) bool
}

// Query is one index query as the planner sees it.
type Query struct {
	// Wheres is the predicate conjunction.
	Wheres []wire.Where
}

// Plan is the executable outcome: the shard set to contact.
type Plan struct {
	// Shards to contact, ascending. On the broadcast fallback this is
	// every shard.
	Shards []int
	// Broadcast marks the contact-everyone fallback; FallbackReason says
	// why ("no equality predicate", "forced broadcast", ...).
	Broadcast      bool
	FallbackReason string
}

// ShardContact is one shard's row in an Explanation.
type ShardContact struct {
	Shard   int
	Rows    int // vertices returned (after shard-side limit)
	Matched int // shard-local matches before limit
	Scanned int // candidate postings and probes examined
}

// Explanation is the EXPLAIN surface: filled in by the gatekeeper while
// executing a query with an Explain option attached.
type Explanation struct {
	Wheres         []wire.Where
	Limit          int
	Broadcast      bool
	FallbackReason string
	// Shards were contacted; Pruned is how many of the cluster's shards
	// the plan skipped. Rounds counts marker re-check follow-up rounds
	// (0 in the steady state).
	Shards []int
	Pruned int
	Rounds int
	// ActualRows is the cluster-wide match count before limiting.
	ActualRows int
	// Per-stage timings from the obs clock: plan build (marker catalog
	// reads), scatter (issue + gather), merge (sort/dedupe/limit).
	PlanTime    time.Duration
	ScatterTime time.Duration
	MergeTime   time.Duration
	PerShard    []ShardContact
}

// Planner holds one gatekeeper's planning state: the shard count and the
// marker catalog reader. Safe for concurrent use.
type Planner struct {
	shards  int
	markers MarkerReader
}

// New builds a planner over the given shard count and marker catalog.
func New(shards int, markers MarkerReader) *Planner {
	return &Planner{shards: shards, markers: markers}
}

// Broadcast returns the fallback plan contacting every shard, with the
// reason recorded for EXPLAIN and the fallback counter.
func (p *Planner) Broadcast(reason string) Plan {
	pl := Plan{Broadcast: true, FallbackReason: reason, Shards: make([]int, p.shards)}
	for i := range pl.Shards {
		pl.Shards[i] = i
	}
	return pl
}

// Build plans one query: equality predicates are intersected against the
// marker catalog to find the only shards that can hold matches; queries
// without an equality predicate broadcast. The returned shard set may be
// empty — the query's result is then provably empty (subject to the
// caller's marker re-check).
func (p *Planner) Build(q Query) Plan {
	eqs := Equalities(q.Wheres)
	if len(eqs) == 0 {
		return p.Broadcast("no equality predicate")
	}
	return Plan{Shards: p.MatchShards(eqs, nil)}
}

// MatchShards returns the shards on which EVERY equality predicate has a
// presence marker, ascending, excluding those in skip — the intersection
// that bounds where a conjunction's matches can live (the result set is a
// subset of each predicate's match set). The gatekeeper calls it again
// after the gather, with the already-contacted set as skip, to catch
// markers that appeared while the query was in flight.
func (p *Planner) MatchShards(eqs []wire.Where, skip map[int]struct{}) []int {
	var out []int
	for s := 0; s < p.shards; s++ {
		if _, done := skip[s]; done {
			continue
		}
		all := true
		for _, w := range eqs {
			if !p.markers.HasValue(w.Key, w.Value, s) {
				all = false
				break
			}
		}
		if all {
			out = append(out, s)
		}
	}
	return out
}

// Equalities extracts the equality predicates of a conjunction.
func Equalities(ws []wire.Where) []wire.Where {
	var out []wire.Where
	for _, w := range ws {
		if w.Op == wire.OpEq {
			out = append(out, w)
		}
	}
	return out
}

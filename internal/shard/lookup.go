package shard

import (
	"fmt"
	"slices"

	"weaver/internal/graph"
	"weaver/internal/index"
	"weaver/internal/wire"
)

// Secondary-index queries (internal/index). A lookup is a read like any
// other: it queues behind the gate in prog.go and builds its visibility
// predicate from the same write-before-read refinement programs use. This
// file is what a READY lookup evaluates.

// answerLookup replies to a ready lookup: the refusal stale (non-empty when
// its read timestamp is behind the GC watermark), a refusal below the
// index's install horizon, or its evaluation.
func (s *Shard) answerLookup(m *wire.IndexLookup, stale string) {
	s.indexLookups.Add(1)
	res := wire.IndexResult{QID: m.QID, Shard: s.cfg.ID, Trace: m.Trace}
	if h := s.idx.Horizon(); stale == "" && !h.Zero() && !h.PointwiseLE(m.ReadTS) {
		s.m.staleInstall.Inc()
		stale = fmt.Sprintf("shard %d: lookup timestamp %v below install horizon %v", s.cfg.ID, m.ReadTS, h)
	}
	if stale != "" {
		res.ErrCode, res.Err = wire.ErrCodeStaleSnapshot, stale
	} else if ids, matched, scanned, indexed := s.evalWheres(m.Wheres, m.Limit, s.visible(m.ReadTS)); indexed {
		res.Vertices, res.Matched, res.Scanned = ids, matched, scanned
	} else {
		res.ErrCode = wire.ErrCodeNoIndex
		res.Err = fmt.Sprintf("shard %d: no index on queried property key(s)", s.cfg.ID)
	}
	s.ep.Send(m.Reply, res)
}

// evalWheres evaluates a predicate conjunction against the secondary
// indexes at one visibility snapshot, sorted ascending and truncated to
// limit — the deterministic shard-side half of the gatekeeper's global
// merge (the global result is the first N of the union, so each shard's
// first N suffice). matched is this shard's pre-limit match count and
// scanned the candidate postings and probes the evaluation touched.
// indexed is false when the conjunction is empty, names an unindexed key or
// carries an unknown operator.
//
// One predicate seeds the candidate set: the first equality, straight from
// its posting list (typically a handful of vertices), or failing that the
// first key's inequalities, folded into one interval (foldBounds) and
// served by one bounded range scan. Everything else is then verified per
// candidate with a point probe (index.VisibleValue), so only the seed ever
// pays for materializing its matches.
func (s *Shard) evalWheres(ws []wire.Where, limit int, before graph.Before) (ids []graph.VertexID, matched, scanned int, indexed bool) {
	if len(ws) == 0 {
		return nil, 0, 0, false
	}
	var eqs []wire.Where
	for _, w := range ws {
		if !s.idx.HasKey(w.Key) || w.Op > wire.OpLt {
			return nil, 0, 0, false
		}
		if w.Op == wire.OpEq {
			eqs = append(eqs, w)
		}
	}
	ranges := foldBounds(ws)
	if len(eqs) > 0 {
		ids, _ = s.idx.Lookup(eqs[0].Key, eqs[0].Value, before)
		eqs = eqs[1:]
	} else {
		ids, _ = s.idx.Scan(ranges[0].key, ranges[0].iv, before)
		ranges = ranges[1:]
	}
	scanned = len(ids)
	verify := func(key string, holds func(val string) bool) {
		scanned += len(ids)
		kept := ids[:0]
		for _, v := range ids {
			if val, ok := s.idx.VisibleValue(key, v, before); ok && holds(val) {
				kept = append(kept, v)
			}
		}
		ids = kept
	}
	for _, w := range eqs {
		verify(w.Key, func(val string) bool { return val == w.Value })
	}
	for _, r := range ranges {
		verify(r.key, r.iv.Contains)
	}
	slices.Sort(ids)
	matched = len(ids)
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	return ids, matched, scanned, true
}

// keyInterval is the intersection of one key's inequality predicates.
type keyInterval struct {
	key string
	iv  index.Interval
}

// foldBounds intersects a conjunction's inequality predicates per key, in
// first-seen key order: each side keeps its tightest bound, a strict bound
// beating an inclusive one at the same value. An empty Value is the
// unbounded side and narrows nothing (the key still gets its interval: "has
// any value"). Contradictory bounds need no special case — index.Interval
// contains nothing when Lo > Hi.
func foldBounds(ws []wire.Where) []keyInterval {
	var keys []keyInterval
	for _, w := range ws {
		if w.Op == wire.OpEq {
			continue
		}
		i := 0
		for i < len(keys) && keys[i].key != w.Key {
			i++
		}
		if i == len(keys) {
			keys = append(keys, keyInterval{key: w.Key})
		}
		iv := &keys[i].iv
		strict := w.Op == wire.OpGt || w.Op == wire.OpLt
		switch {
		case w.Value == "":
		case w.Op == wire.OpGe || w.Op == wire.OpGt:
			if iv.Lo == "" || w.Value > iv.Lo || w.Value == iv.Lo && strict {
				iv.Lo, iv.LoStrict = w.Value, strict
			}
		default:
			if iv.Hi == "" || w.Value < iv.Hi || w.Value == iv.Hi && strict {
				iv.Hi, iv.HiStrict = w.Value, strict
			}
		}
	}
	return keys
}

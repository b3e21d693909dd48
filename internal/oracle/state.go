package oracle

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"weaver/internal/binenc"
	"weaver/internal/core"
)

// DAG state transfer format (chain-replica heal): a version byte, the
// activity counters, every node (ID, timestamp, explicit out-edges) and the
// settled decision cache, closed by a CRC-32C over everything before it.
// In-edges and the edged index are derivable and rebuilt on decode. Nodes,
// out-edges and cache entries are written in sorted ID order, so identical
// DAGs encode to identical bytes (chain replicas compare state
// byte-for-byte after a rejoin).
const stateVersion = 1

var stateCRC = crc32.MakeTable(crc32.Castagnoli)

func idLess(a, b core.ID) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch < b.Epoch
	}
	if a.Owner != b.Owner {
		return a.Owner < b.Owner
	}
	return a.Counter < b.Counter
}

func sortIDs(ids []core.ID) {
	sort.Slice(ids, func(i, j int) bool { return idLess(ids[i], ids[j]) })
}

// Append appends the counters in declaration order.
func (s Stats) Append(buf []byte) []byte {
	for _, v := range [...]uint64{
		s.Queries, s.Assigns, s.Established, s.CacheHits, s.VClockHits,
		s.Transitive, s.Events, s.GCCollected, s.CycleRefused,
	} {
		buf = binenc.AppendUvarint(buf, v)
	}
	return buf
}

// DecodeStats reads counters written by Stats.Append.
func DecodeStats(d *binenc.Decoder) Stats {
	var s Stats
	for _, p := range [...]*uint64{
		&s.Queries, &s.Assigns, &s.Established, &s.CacheHits, &s.VClockHits,
		&s.Transitive, &s.Events, &s.GCCollected, &s.CycleRefused,
	} {
		*p = d.Uvarint()
	}
	return s
}

// EncodeState serializes the DAG's full state deterministically.
func (d *DAG) EncodeState() ([]byte, error) {
	buf := d.stats.Append([]byte{stateVersion})

	ids := make([]core.ID, 0, len(d.nodes))
	for id := range d.nodes {
		ids = append(ids, id)
	}
	sortIDs(ids)
	buf = binenc.AppendUvarint(buf, uint64(len(ids)))
	var outs []core.ID
	for _, id := range ids {
		n := d.nodes[id]
		buf = binenc.AppendID(buf, id)
		buf = binenc.AppendTS(buf, n.ts)
		outs = outs[:0]
		for out := range n.out {
			outs = append(outs, out)
		}
		sortIDs(outs)
		buf = binenc.AppendUvarint(buf, uint64(len(outs)))
		for _, out := range outs {
			buf = binenc.AppendID(buf, out)
		}
	}

	keys := make([][2]core.ID, 0, len(d.cache))
	for key := range d.cache {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return idLess(keys[i][0], keys[j][0])
		}
		return idLess(keys[i][1], keys[j][1])
	})
	buf = binenc.AppendUvarint(buf, uint64(len(keys)))
	for _, key := range keys {
		buf = binenc.AppendID(buf, key[0])
		buf = binenc.AppendID(buf, key[1])
		buf = binenc.AppendVarint(buf, int64(d.cache[key]))
	}
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, stateCRC)), nil
}

// DecodeState replaces the DAG's contents with a prior EncodeState
// payload, rebuilding the in-edge sets and the edged index. On error the
// DAG is left untouched.
func (d *DAG) DecodeState(state []byte) error {
	if len(state) < 5 || state[0] != stateVersion {
		return fmt.Errorf("oracle: decode state: not a version-%d DAG state", stateVersion)
	}
	body, tail := state[:len(state)-4], state[len(state)-4:]
	if crc32.Checksum(body, stateCRC) != binary.BigEndian.Uint32(tail) {
		return fmt.Errorf("oracle: decode state: checksum mismatch")
	}
	dec := binenc.Decoder{Buf: body[1:]}
	stats := DecodeStats(&dec)

	type edge struct{ from, to core.ID }
	var edges []edge
	nn := dec.Count(7) // node ≥7 bytes: 3-byte ID, 3-byte timestamp, out count
	nodes := make(map[core.ID]*node, nn)
	for i := uint64(0); i < nn && dec.Err == nil; i++ {
		id := dec.ID()
		nodes[id] = &node{ts: dec.TS(), out: make(map[core.ID]struct{}), in: make(map[core.ID]struct{})}
		for no := dec.Count(3); no > 0 && dec.Err == nil; no-- {
			edges = append(edges, edge{id, dec.ID()})
		}
	}
	nc := dec.Count(7) // entry ≥7 bytes: two 3-byte IDs + order
	cache := make(map[[2]core.ID]core.Order, nc)
	for i := uint64(0); i < nc && dec.Err == nil; i++ {
		key := [2]core.ID{dec.ID(), dec.ID()}
		cache[key] = core.Order(dec.Varint())
	}
	if dec.Err != nil || len(dec.Buf) != 0 {
		return fmt.Errorf("oracle: decode state: malformed body (err %v, %d trailing bytes)", dec.Err, len(dec.Buf))
	}

	edged := make(map[core.ID]*node)
	for _, e := range edges {
		n := nodes[e.from]
		n.out[e.to] = struct{}{}
		edged[e.from] = n
		if sn, ok := nodes[e.to]; ok {
			sn.in[e.from] = struct{}{}
		}
	}
	d.nodes, d.edged, d.cache, d.stats = nodes, edged, cache, stats
	return nil
}

// Snapshot implements chainrep.Snapshotter, making the replicated oracle
// heal-capable: a rejoining replica restores the full DAG from the tail.
func (s *dagSM) Snapshot() ([]byte, error) { return s.d.EncodeState() }

// Restore implements chainrep.Snapshotter.
func (s *dagSM) Restore(state []byte) error { return s.d.DecodeState(state) }

// FailReplica injects a replica failure (the chaos path; also used by
// Weaver's Cluster when an oracle replica process dies).
func (r *Replicated) FailReplica(i int) { r.chain.Fail(i) }

// HealReplica rejoins a failed replica via state transfer from the chain
// tail.
func (r *Replicated) HealReplica(i int) error { return r.chain.Heal(i) }

// LiveReplicas returns the number of live chain replicas.
func (r *Replicated) LiveReplicas() int { return r.chain.Live() }

// Package oracle implements Weaver's timeline oracle (§3.4): a Kronos-style
// event-ordering service that tracks happens-before relationships between
// outstanding transactions in a dependency DAG, refines the order of
// concurrent timestamps on demand, and guarantees that its answers are
// mutually consistent, transitive, and irreversible.
//
// Each event is a transaction, identified by the unique ID of its refinable
// timestamp. Edges are happens-before commitments. Two kinds of ordering
// information coexist:
//
//   - implicit edges: if ts(a) ≺ ts(b) by vector-clock comparison, then
//     a ≺ b always, with no DAG edge stored (§4.1: "the timeline oracle can
//     infer and maintain implicit dependencies captured by the vector
//     clocks");
//   - explicit edges: commitments recorded by AssignOrder or by a
//     QueryOrder call that found no existing order and established one.
//
// Reachability therefore traverses both edge kinds. The DAG is kept acyclic:
// AssignOrder refuses any commitment that would contradict an existing
// (implicit or explicit) path.
package oracle

import (
	"errors"
	"fmt"

	"weaver/internal/binenc"
	"weaver/internal/core"
)

// Event identifies a transaction to the oracle: the compact unique ID plus
// the full vector timestamp (needed for implicit ordering).
type Event struct {
	ID core.ID
	TS core.Timestamp
}

// EventOf builds an Event from a timestamp.
func EventOf(ts core.Timestamp) Event { return Event{ID: ts.ID(), TS: ts} }

// ErrCycle is returned by AssignOrder when the requested commitment would
// contradict an already-established order.
var ErrCycle = errors.New("oracle: order assignment would create a cycle")

// Stats counts oracle activity. Queries plus Assigns per operation is the
// ledger's oracle.msgs_per_op row, the reactive half of §6.5's trade-off.
type Stats struct {
	Queries      uint64 // QueryOrder calls
	Assigns      uint64 // AssignOrder calls
	Established  uint64 // orders newly established (edges added)
	CacheHits    uint64 // answers served from the decision cache
	VClockHits   uint64 // answers resolved by implicit vector-clock order
	Transitive   uint64 // answers resolved by DAG reachability
	Events       uint64 // live events currently tracked
	GCCollected  uint64 // events removed by garbage collection
	CycleRefused uint64 // AssignOrder calls refused with ErrCycle
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

type node struct {
	ts  core.Timestamp
	out map[core.ID]struct{}
	in  map[core.ID]struct{}
}

// DAG is the oracle's event dependency graph. It is a pure state machine
// with no internal locking: Service wraps it for concurrent use. All
// methods are deterministic.
type DAG struct {
	nodes map[core.ID]*node
	// edged indexes the nodes with at least one explicit out-edge. The
	// reachability search only ever needs implicit (vector-clock) hops
	// INTO these nodes — an implicit hop to an edge-less node either
	// terminates the search (covered by the vclock terminal check) or
	// dead-ends — so the search scans this index instead of every
	// registered event. Most events never establish an explicit order
	// (they resolve by vector clock), which makes this index orders of
	// magnitude smaller than the node table under heavy traffic.
	edged map[core.ID]*node
	// cache memoizes settled Before/After answers. Decisions are
	// monotonic and irreversible (§4.2), so entries never invalidate;
	// GC drops entries for collected events.
	cache map[[2]core.ID]core.Order
	stats Stats
}

// NewDAG returns an empty dependency graph.
func NewDAG() *DAG {
	return &DAG{
		nodes: make(map[core.ID]*node),
		edged: make(map[core.ID]*node),
		cache: make(map[[2]core.ID]core.Order),
	}
}

// Stats returns a snapshot of activity counters.
func (d *DAG) Stats() Stats {
	s := d.stats
	s.Events = uint64(len(d.nodes))
	return s
}

func (d *DAG) ensure(e Event) *node {
	if n, ok := d.nodes[e.ID]; ok {
		return n
	}
	n := &node{ts: e.TS, out: make(map[core.ID]struct{}), in: make(map[core.ID]struct{})}
	d.nodes[e.ID] = n
	return n
}

// CreateEvent registers an event. Registration is idempotent and implied by
// the other calls; it exists so callers can pre-register transactions.
func (d *DAG) CreateEvent(e Event) { d.ensure(e) }

// reachable reports whether a path from src to dst exists, following
// explicit out-edges and implicit vector-clock edges. dstTS is dst's
// timestamp. Precondition: src's timestamp is NOT vclock-before dstTS
// (callers resolve that case directly).
func (d *DAG) reachable(src core.ID, dstID core.ID, dstTS core.Timestamp) bool {
	srcN, ok := d.nodes[src]
	if !ok {
		return false
	}
	visited := map[core.ID]struct{}{src: {}}
	stack := make([]*node, 0, 8)
	stackIDs := make([]core.ID, 0, 8)
	stack = append(stack, srcN)
	stackIDs = append(stackIDs, src)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		xid := stackIDs[len(stackIDs)-1]
		stack = stack[:len(stack)-1]
		stackIDs = stackIDs[:len(stackIDs)-1]

		// Candidate successors: explicit edges out of x, plus implicit
		// hops to any event that itself has explicit out-edges. (An
		// implicit hop to a node with no out-edges is useful only if
		// that node terminates the search, which the terminal check
		// below covers via vclock transitivity.)
		for sid := range x.out {
			if sid == dstID {
				return true
			}
			sn := d.nodes[sid]
			if sn == nil {
				continue
			}
			switch sn.ts.Compare(dstTS) {
			case core.Before:
				return true
			case core.After:
				// Sound prune: every edge (explicit or implicit) agrees
				// with the refined total order, which extends vclock
				// order, and the combined relation is acyclic — so a
				// node vclock-after dst can never lie on a path to dst
				// (the implicit dst→node edge would close a cycle).
				// This keeps searches local to dst's concurrency
				// window instead of scanning the whole DAG — decisive
				// when pinned snapshots hold GC and the DAG grows with
				// every commit.
				continue
			}
			if _, seen := visited[sid]; !seen {
				visited[sid] = struct{}{}
				stack = append(stack, sn)
				stackIDs = append(stackIDs, sid)
			}
		}
		// Implicit hops: x ≺_vc y for any registered y with explicit
		// out-edges (the edged index; implicit hops to edge-less nodes
		// are redundant: either such a y is terminal, which the vclock
		// terminal check above already covers through transitivity, or
		// the path dead ends there). Nodes vclock-after dst are pruned
		// for the same acyclicity reason as above.
		for yid, yn := range d.edged {
			if yid == xid || len(yn.out) == 0 {
				continue
			}
			if _, seen := visited[yid]; seen {
				continue
			}
			if x.ts.Compare(yn.ts) == core.Before && yn.ts.Compare(dstTS) != core.After {
				if yid == dstID || yn.ts.Compare(dstTS) == core.Before {
					return true
				}
				visited[yid] = struct{}{}
				stack = append(stack, yn)
				stackIDs = append(stackIDs, yid)
			}
		}
	}
	return false
}

// order resolves the relationship between two registered events without
// establishing anything new. Returns Concurrent if no order exists yet.
func (d *DAG) order(a, b Event) core.Order {
	if a.ID == b.ID {
		return core.Equal
	}
	if cmp := a.TS.Compare(b.TS); cmp != core.Concurrent {
		d.stats.VClockHits++
		return cmp
	}
	key := [2]core.ID{a.ID, b.ID}
	if o, ok := d.cache[key]; ok {
		d.stats.CacheHits++
		return o
	}
	d.ensure(a)
	d.ensure(b)
	if d.reachable(a.ID, b.ID, b.TS) {
		d.stats.Transitive++
		d.remember(a.ID, b.ID, core.Before)
		return core.Before
	}
	if d.reachable(b.ID, a.ID, a.TS) {
		d.stats.Transitive++
		d.remember(a.ID, b.ID, core.After)
		return core.After
	}
	return core.Concurrent
}

func (d *DAG) remember(a, b core.ID, o core.Order) {
	d.cache[[2]core.ID{a, b}] = o
	d.cache[[2]core.ID{b, a}] = o.Invert()
}

// addEdge records first ≺ second as an explicit commitment.
func (d *DAG) addEdge(first, second Event) {
	fn, sn := d.ensure(first), d.ensure(second)
	fn.out[second.ID] = struct{}{}
	sn.in[first.ID] = struct{}{}
	d.edged[first.ID] = fn
	d.remember(first.ID, second.ID, core.Before)
	d.stats.Established++
}

// AssignOrder commits first ≺ second (used by gatekeepers at commit time to
// align oracle order with backing-store commit order, §4.2). It returns
// ErrCycle if second ≺ first is already established, and is a no-op if the
// order already holds.
func (d *DAG) AssignOrder(first, second Event) error {
	d.stats.Assigns++
	switch d.order(first, second) {
	case core.Before, core.Equal:
		return nil
	case core.After:
		d.stats.CycleRefused++
		return fmt.Errorf("%w: %v already ordered after %v", ErrCycle, first.ID, second.ID)
	}
	d.addEdge(first, second)
	return nil
}

// QueryOrder returns the order between a and b, establishing one if none
// exists. prefer names the side the caller wants first when the oracle is
// free to choose (§4.1: the oracle "will prefer arrival order", and always
// orders node programs after transactions when no order exists). prefer
// must be Before (a first) or After (b first); it is ignored when an order
// already exists.
func (d *DAG) QueryOrder(a, b Event, prefer core.Order) core.Order {
	d.stats.Queries++
	if o := d.order(a, b); o != core.Concurrent {
		return o
	}
	if prefer == core.After {
		d.addEdge(b, a)
		return core.After
	}
	d.addEdge(a, b)
	return core.Before
}

// Ordered reports the current relationship without establishing a new one.
func (d *DAG) Ordered(a, b Event) core.Order {
	d.stats.Queries++
	return d.order(a, b)
}

// GC removes events whose timestamps are strictly before the watermark
// (§4.5: everything older than the oldest ongoing operation). Splice edges
// pred→succ around each removed node so transitive commitments between
// survivors are preserved.
func (d *DAG) GC(watermark core.Timestamp) int {
	var victims []core.ID
	for id, n := range d.nodes {
		if n.ts.Compare(watermark) == core.Before {
			victims = append(victims, id)
		}
	}
	for _, id := range victims {
		n := d.nodes[id]
		for pid := range n.in {
			pn := d.nodes[pid]
			if pn == nil {
				continue
			}
			delete(pn.out, id)
			for sid := range n.out {
				if sid != pid {
					pn.out[sid] = struct{}{}
					if sn := d.nodes[sid]; sn != nil {
						sn.in[pid] = struct{}{}
					}
				}
			}
			// Splicing may have grown or emptied pn's out-set; keep the
			// edged index exact.
			if len(pn.out) == 0 {
				delete(d.edged, pid)
			} else {
				d.edged[pid] = pn
			}
		}
		for sid := range n.out {
			if sn := d.nodes[sid]; sn != nil {
				delete(sn.in, id)
			}
		}
		delete(d.nodes, id)
		delete(d.edged, id)
	}
	if len(victims) > 0 {
		gone := make(map[core.ID]struct{}, len(victims))
		for _, id := range victims {
			gone[id] = struct{}{}
		}
		for key := range d.cache {
			if _, a := gone[key[0]]; a {
				delete(d.cache, key)
				continue
			}
			if _, b := gone[key[1]]; b {
				delete(d.cache, key)
			}
		}
	}
	d.stats.GCCollected += uint64(len(victims))
	return len(victims)
}

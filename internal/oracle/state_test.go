package oracle

import (
	"testing"

	"weaver/internal/core"
)

func tsAt(owner int, counters ...uint64) core.Timestamp {
	return core.Timestamp{Owner: owner, Clock: counters}
}

func TestStateRoundTripPreservesDecisions(t *testing.T) {
	d := NewDAG()
	a := EventOf(tsAt(0, 2, 1))
	b := EventOf(tsAt(1, 1, 2))
	c := EventOf(tsAt(0, 3, 1))
	d.CreateEvent(a)
	d.CreateEvent(b)
	d.CreateEvent(c)
	if got := d.QueryOrder(a, b, core.Before); got != core.Before {
		t.Fatalf("QueryOrder = %v", got)
	}
	if err := d.AssignOrder(b, c); err != nil {
		t.Fatal(err)
	}

	state, err := d.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	d2 := NewDAG()
	if err := d2.DecodeState(state); err != nil {
		t.Fatal(err)
	}

	// Decisions survive, including the transitive a ≺ c.
	if got := d2.Ordered(a, b); got != core.Before {
		t.Fatalf("restored a vs b = %v", got)
	}
	if got := d2.Ordered(b, c); got != core.Before {
		t.Fatalf("restored b vs c = %v", got)
	}
	if got := d2.Ordered(a, c); got != core.Before {
		t.Fatalf("restored transitive a vs c = %v", got)
	}
	// Irreversibility still enforced post-restore.
	if err := d2.AssignOrder(c, b); err == nil {
		t.Fatal("restored DAG must refuse contradicting assignment")
	}

	// Determinism: identical DAGs encode identically.
	s1, _ := d.EncodeState()
	s2, _ := d.EncodeState()
	if string(s1) != string(s2) {
		t.Fatal("EncodeState is not deterministic")
	}
}

func TestReplicatedOracleHeals(t *testing.T) {
	r := NewReplicated(3)
	a := EventOf(tsAt(0, 2, 1))
	b := EventOf(tsAt(1, 1, 2))
	if _, err := r.QueryOrder(a, b, core.Before); err != nil {
		t.Fatal(err)
	}
	r.FailReplica(2)
	c := EventOf(tsAt(0, 3, 1))
	if err := r.AssignOrder(b, c); err != nil {
		t.Fatal(err)
	}
	if r.LiveReplicas() != 2 {
		t.Fatalf("live = %d", r.LiveReplicas())
	}
	if err := r.HealReplica(2); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if r.LiveReplicas() != 3 {
		t.Fatalf("live after heal = %d", r.LiveReplicas())
	}
	// Ordered at where=1.0 hits the tail — the healed replica.
	if got, err := r.Ordered(a, b); err != nil || got != core.Before {
		t.Fatalf("healed tail answer: %v, %v", got, err)
	}
	if got, err := r.Ordered(b, c); err != nil || got != core.Before {
		t.Fatalf("healed tail answer for post-failure decision: %v, %v", got, err)
	}
}

// TestStateEncodingIsCanonicalAndChecked: two DAGs that reached the same
// state by different routes (map iteration order, insertion order) encode
// to identical bytes, and every truncation or single-bit flip of that
// encoding is rejected without disturbing the receiving DAG.
func TestStateEncodingIsCanonicalAndChecked(t *testing.T) {
	evs := []Event{
		EventOf(tsAt(0, 2, 1)), EventOf(tsAt(1, 1, 2)),
		EventOf(tsAt(0, 3, 1)), EventOf(tsAt(1, 1, 3)),
	}
	build := func(order []int) *DAG {
		d := NewDAG()
		for _, i := range order {
			d.CreateEvent(evs[i])
		}
		d.QueryOrder(evs[0], evs[1], core.Before)
		d.QueryOrder(evs[2], evs[3], core.Before)
		return d
	}
	s1, err := build([]int{0, 1, 2, 3}).EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewDAG()
	if err := restored.DecodeState(s1); err != nil {
		t.Fatal(err)
	}
	s2, _ := restored.EncodeState()
	if string(s1) != string(s2) {
		t.Fatal("a restored DAG does not re-encode to the bytes it was restored from")
	}
	if s3, _ := build([]int{3, 2, 1, 0}).EncodeState(); string(s1) != string(s3) {
		t.Fatal("the same DAG built in another insertion order encodes differently")
	}

	for n := 0; n < len(s1); n++ {
		if err := restored.DecodeState(s1[:n]); err == nil {
			t.Fatalf("state truncated to %d/%d bytes accepted", n, len(s1))
		}
	}
	for i := range s1 {
		mut := append([]byte{}, s1...)
		mut[i] ^= 0x10
		if err := restored.DecodeState(mut); err == nil {
			t.Fatalf("bit flip at offset %d accepted", i)
		}
	}
	if after, _ := restored.EncodeState(); string(after) != string(s1) {
		t.Fatal("a rejected DecodeState modified the DAG")
	}
}

package oracle

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"weaver/internal/core"
)

// evc builds an event with a concurrent-by-construction timestamp: every
// event has the same epoch and a clock that dominates in its own slot only.
func evc(owner int, counter uint64) Event {
	clock := make([]uint64, 4)
	clock[owner] = counter
	return EventOf(core.Timestamp{Epoch: 0, Owner: owner, Clock: clock})
}

// evt builds an event from an explicit timestamp.
func evt(owner int, clock ...uint64) Event {
	return EventOf(core.Timestamp{Epoch: 0, Owner: owner, Clock: clock})
}

func TestQueryOrderPrefersArrival(t *testing.T) {
	d := NewDAG()
	a, b := evc(0, 1), evc(1, 1)
	if o := d.QueryOrder(a, b, core.Before); o != core.Before {
		t.Fatalf("fresh pair with prefer=Before: got %v", o)
	}
	// The decision must be durable regardless of later preference.
	if o := d.QueryOrder(a, b, core.After); o != core.Before {
		t.Fatalf("established order must be returned: got %v", o)
	}
	if o := d.QueryOrder(b, a, core.Before); o != core.After {
		t.Fatalf("mirrored query must invert: got %v", o)
	}
}

func TestQueryOrderPreferAfter(t *testing.T) {
	d := NewDAG()
	a, b := evc(0, 1), evc(1, 1)
	if o := d.QueryOrder(a, b, core.After); o != core.After {
		t.Fatalf("prefer=After should order b first: got %v", o)
	}
	if err := d.AssignOrder(a, b); !errors.Is(err, ErrCycle) {
		t.Fatalf("AssignOrder contradicting decision must fail, got %v", err)
	}
}

func TestVClockOrderWinsWithoutEdges(t *testing.T) {
	d := NewDAG()
	a := evt(0, 1, 0)
	b := evt(1, 1, 1)
	if o := d.QueryOrder(a, b, core.After); o != core.Before {
		t.Fatalf("vclock-ordered pair must ignore preference: got %v", o)
	}
	if d.Stats().Established != 0 {
		t.Fatal("no edge should be recorded for vclock-ordered pairs")
	}
}

func TestTransitivityExplicit(t *testing.T) {
	d := NewDAG()
	a, b, c := evc(0, 1), evc(1, 1), evc(2, 1)
	if err := d.AssignOrder(a, b); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignOrder(b, c); err != nil {
		t.Fatal(err)
	}
	if o := d.QueryOrder(a, c, core.After); o != core.Before {
		t.Fatalf("transitive a≺c expected, got %v", o)
	}
	if err := d.AssignOrder(c, a); !errors.Is(err, ErrCycle) {
		t.Fatalf("closing the cycle must fail, got %v", err)
	}
}

// Paper §4.1 example: oracle orders <0,1> ≺ <1,0>; asked about <0,1> vs
// <2,0> it must answer <0,1> ≺ <2,0> because <0,1> ≺ <1,0> ≺_vc <2,0>.
func TestTransitivityThroughImplicitEdges(t *testing.T) {
	d := NewDAG()
	a := evt(1, 0, 1)  // <0,1> issued by gk1
	b1 := evt(0, 1, 0) // <1,0> issued by gk0
	b2 := evt(0, 2, 0) // <2,0> issued by gk0, after b1 by vclock
	if o := d.QueryOrder(a, b1, core.Before); o != core.Before {
		t.Fatalf("setup failed: got %v", o)
	}
	if o := d.QueryOrder(a, b2, core.After); o != core.Before {
		t.Fatalf("implicit transitive order expected Before, got %v", o)
	}
	if err := d.AssignOrder(b2, a); !errors.Is(err, ErrCycle) {
		t.Fatalf("contradiction must be refused, got %v", err)
	}
}

// Implicit hop in the middle of a chain: a ≺ m (explicit), m ≺_vc m2
// (implicit), m2 ≺ c (explicit) ⟹ a ≺ c.
func TestTransitivityMixedChain(t *testing.T) {
	d := NewDAG()
	a := evc(3, 5)
	m := evt(0, 1, 0, 0, 0)
	m2 := evt(0, 2, 0, 0, 0)
	c := evc(2, 9)
	if err := d.AssignOrder(a, m); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignOrder(m2, c); err != nil {
		t.Fatal(err)
	}
	if o := d.Ordered(a, c); o != core.Before {
		t.Fatalf("mixed chain must yield Before, got %v", o)
	}
}

func TestEqualAndIdempotentAssign(t *testing.T) {
	d := NewDAG()
	a := evc(0, 1)
	if o := d.QueryOrder(a, a, core.Before); o != core.Equal {
		t.Fatalf("self query must be Equal, got %v", o)
	}
	b := evc(1, 1)
	if err := d.AssignOrder(a, b); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignOrder(a, b); err != nil {
		t.Fatalf("idempotent assign must succeed, got %v", err)
	}
	st := d.Stats()
	if st.Established != 1 {
		t.Fatalf("exactly one edge expected, got %d", st.Established)
	}
}

func TestOrderedDoesNotEstablish(t *testing.T) {
	d := NewDAG()
	a, b := evc(0, 1), evc(1, 1)
	if o := d.Ordered(a, b); o != core.Concurrent {
		t.Fatalf("no order should exist, got %v", o)
	}
	if o := d.Ordered(a, b); o != core.Concurrent {
		t.Fatalf("Ordered must not establish, got %v", o)
	}
}

func TestGCSplicesEdges(t *testing.T) {
	d := NewDAG()
	a, b, c := evc(0, 1), evc(1, 1), evc(2, 1)
	if err := d.AssignOrder(a, b); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignOrder(b, c); err != nil {
		t.Fatal(err)
	}
	// Watermark dominating only b's timestamp: collect b.
	wm := core.Timestamp{Epoch: 0, Owner: 0, Clock: []uint64{1, 2, 0, 1}}
	if n := d.GC(wm); n != 1 {
		t.Fatalf("expected exactly 1 collected (b), got %d", n)
	}
	// a ≺ c must survive through the spliced edge. Note a and c remain
	// registered with out/in edges.
	if o := d.Ordered(a, c); o != core.Before {
		t.Fatalf("spliced transitive order lost: got %v", o)
	}
}

func TestGCCollectsOldEvents(t *testing.T) {
	d := NewDAG()
	for i := 0; i < 10; i++ {
		d.CreateEvent(evt(0, uint64(i+1), 0))
	}
	// Events with counters 1..6 are strictly before watermark <6,1>.
	wm := core.Timestamp{Epoch: 0, Owner: 1, Clock: []uint64{6, 1}}
	if n := d.GC(wm); n != 6 {
		t.Fatalf("expected 6 collected, got %d", n)
	}
	if st := d.Stats(); st.Events != 4 {
		t.Fatalf("expected 4 events left, got %d", st.Events)
	}
}

func TestServiceConcurrentClients(t *testing.T) {
	s := NewService()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				a, b := evc(r.Intn(4), uint64(r.Intn(20)+1)), evc(r.Intn(4), uint64(r.Intn(20)+1))
				if a.ID == b.ID {
					continue
				}
				o1, err := s.QueryOrder(a, b, core.Before)
				if err != nil {
					errs <- err
					return
				}
				o2, err := s.QueryOrder(b, a, core.After)
				if err != nil {
					errs <- err
					return
				}
				if o1 != o2.Invert() {
					errs <- errors.New("inconsistent answers for mirrored query")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Property: under random query/assign load the oracle never contradicts
// itself — re-querying any previously answered pair returns the same answer.
func TestQuickOracleDecisionsIrreversible(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := NewDAG()
	type pair struct{ a, b Event }
	answered := make(map[[2]core.ID]core.Order)
	var pairs []pair
	for i := 0; i < 4000; i++ {
		a := evc(r.Intn(4), uint64(r.Intn(30)+1))
		b := evc(r.Intn(4), uint64(r.Intn(30)+1))
		if a.ID == b.ID {
			continue
		}
		prefer := core.Before
		if r.Intn(2) == 0 {
			prefer = core.After
		}
		got := d.QueryOrder(a, b, prefer)
		key := [2]core.ID{a.ID, b.ID}
		if prev, ok := answered[key]; ok && prev != got {
			t.Fatalf("decision reversed for %v,%v: %v then %v", a.ID, b.ID, prev, got)
		}
		answered[key] = got
		answered[[2]core.ID{b.ID, a.ID}] = got.Invert()
		pairs = append(pairs, pair{a, b})
		// Revisit a random historical pair.
		p := pairs[r.Intn(len(pairs))]
		again := d.Ordered(p.a, p.b)
		if prev := answered[[2]core.ID{p.a.ID, p.b.ID}]; again != prev {
			t.Fatalf("historical decision changed for %v,%v: %v then %v", p.a.ID, p.b.ID, prev, again)
		}
	}
}

// Property: the oracle's committed relation is acyclic — build random
// chains and verify no sequence of QueryOrder answers forms a cycle a≺b≺a.
func TestQuickOracleAcyclic(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	d := NewDAG()
	var events []Event
	for i := 0; i < 40; i++ {
		events = append(events, evc(i%4, uint64(i/4+1)))
	}
	for i := 0; i < 5000; i++ {
		a, b := events[r.Intn(len(events))], events[r.Intn(len(events))]
		if a.ID == b.ID {
			continue
		}
		d.QueryOrder(a, b, core.Before)
	}
	// Verify antisymmetry pairwise over the whole event set.
	for _, a := range events {
		for _, b := range events {
			if a.ID == b.ID {
				continue
			}
			ab := d.Ordered(a, b)
			ba := d.Ordered(b, a)
			if ab != ba.Invert() {
				t.Fatalf("asymmetry violated: %v vs %v: %v / %v", a.ID, b.ID, ab, ba)
			}
		}
	}
	// Verify transitivity on the settled relation.
	for _, a := range events {
		for _, b := range events {
			for _, c := range events {
				if a.ID == b.ID || b.ID == c.ID || a.ID == c.ID {
					continue
				}
				if d.Ordered(a, b) == core.Before && d.Ordered(b, c) == core.Before {
					if got := d.Ordered(a, c); got != core.Before {
						t.Fatalf("transitivity violated: %v≺%v≺%v but a vs c = %v", a.ID, b.ID, c.ID, got)
					}
				}
			}
		}
	}
}

func TestStatsCounters(t *testing.T) {
	d := NewDAG()
	a, b := evc(0, 1), evc(1, 1)
	d.QueryOrder(a, b, core.Before) // establishes
	d.QueryOrder(a, b, core.Before) // cache hit
	d.QueryOrder(a, evt(0, 2, 0, 0, 0), core.Before)
	st := d.Stats()
	if st.Queries != 3 || st.Established != 1 || st.CacheHits != 1 || st.VClockHits != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// The Client surface of the one oracle a deployment runs agrees with the
// DAG it wraps: refused cycles, Ordered reads and a consistent assignment of
// an order QueryOrder established.
func TestReplicatedOracleMatchesDirect(t *testing.T) {
	var c Client = NewService()
	a, b := evc(0, 1), evc(1, 1)
	o, err := c.QueryOrder(a, b, core.Before)
	if err != nil || o != core.Before {
		t.Fatalf("QueryOrder: %v %v", o, err)
	}
	if o, err := c.Ordered(a, b); err != nil || o != core.Before {
		t.Fatalf("Ordered: %v %v", o, err)
	}
	if err := c.AssignOrder(b, a); !errors.Is(err, ErrCycle) {
		t.Fatalf("contradicting assignment: %v, want ErrCycle", err)
	}
	if err := c.AssignOrder(a, b); err != nil {
		t.Fatalf("assigning the established order: %v", err)
	}
	if st := c.Stats(); st.Events != 2 || st.Queries != 2 || st.Assigns != 2 || st.CycleRefused != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// Decisions made through Client stay put as later decisions build on them,
// and GC through Client empties the DAG.
func TestReplicatedOracleSurvivesReplicaFailure(t *testing.T) {
	var c Client = NewService()
	a, b, d := evc(0, 1), evc(1, 1), evc(2, 1)
	if _, err := c.QueryOrder(a, b, core.Before); err != nil {
		t.Fatal(err)
	}
	if o, err := c.Ordered(a, b); err != nil || o != core.Before {
		t.Fatalf("decision lost: %v %v", o, err)
	}
	if _, err := c.QueryOrder(b, d, core.Before); err != nil {
		t.Fatal(err)
	}
	if o, _ := c.Ordered(a, d); o != core.Before {
		t.Fatalf("transitivity broken: %v", o)
	}
	if err := c.GC(core.Timestamp{Epoch: 1, Clock: []uint64{1, 1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Events != 0 || st.GCCollected != 3 {
		t.Fatalf("GC through Client left %+v", st)
	}
}

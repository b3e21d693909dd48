package transport

import (
	"fmt"
	"testing"
	"time"
)

func drain(ep Endpoint, n int, timeout time.Duration) []Message {
	var out []Message
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case <-ep.Recv():
			for {
				m, ok := ep.Next()
				if !ok {
					break
				}
				out = append(out, m)
			}
		case <-deadline:
			return out
		}
	}
	return out
}

func TestSendRecv(t *testing.T) {
	f := NewFabric()
	a := f.Endpoint("a")
	b := f.Endpoint("b")
	if err := a.Send("b", "hello"); err != nil {
		t.Fatal(err)
	}
	msgs := drain(b, 1, time.Second)
	if len(msgs) != 1 || msgs[0].Payload != "hello" || msgs[0].From != "a" {
		t.Fatalf("got %+v", msgs)
	}
}

func TestSendUnknownAddr(t *testing.T) {
	f := NewFabric()
	a := f.Endpoint("a")
	if err := a.Send("nope", 1); err == nil {
		t.Fatal("unknown address must error")
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	f := NewFabric()
	a := f.Endpoint("a")
	b := f.Endpoint("b")
	b.Close()
	if err := a.Send("b", 1); err == nil {
		t.Fatal("send to closed endpoint must error")
	}
}

func TestUnboundedMailboxNoDeadlock(t *testing.T) {
	f := NewFabric()
	a := f.Endpoint("a")
	b := f.Endpoint("b")
	// Huge burst without a reader: must not block.
	for i := 0; i < 100000; i++ {
		if err := a.Send("b", i); err != nil {
			t.Fatal(err)
		}
	}
	msgs := drain(b, 100000, 5*time.Second)
	if len(msgs) != 100000 {
		t.Fatalf("delivered %d of 100000", len(msgs))
	}
	for i, m := range msgs {
		if m.Payload.(int) != i {
			t.Fatalf("in-proc fabric must be FIFO without injection: %d at %d", m.Payload, i)
		}
	}
}

func TestDelayInjection(t *testing.T) {
	f := NewFabric().WithDelay(5*time.Millisecond, 6*time.Millisecond)
	a := f.Endpoint("a")
	b := f.Endpoint("b")
	start := time.Now()
	a.Send("b", 1)
	msgs := drain(b, 1, time.Second)
	if len(msgs) != 1 {
		t.Fatal("message lost")
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("delay not applied: %v", d)
	}
}

func TestReorderInjectionAndResequencer(t *testing.T) {
	f := NewFabric().WithReorder(0.3, 3*time.Millisecond)
	a := f.Endpoint("a")
	b := f.Endpoint("b")
	const n = 200
	// One int per message (the test codec frames ints): sequence number in
	// the high half, value in the low half.
	seq := NewSequencer()
	for i := 0; i < n; i++ {
		a.Send("b", int(seq.Next("b"))<<32|i)
	}
	msgs := drain(b, n, 5*time.Second)
	if len(msgs) != n {
		t.Fatalf("delivered %d of %d", len(msgs), n)
	}
	outOfOrder := false
	for i, m := range msgs {
		if m.Payload.(int)>>32 != i+1 {
			outOfOrder = true
			break
		}
	}
	if !outOfOrder {
		t.Log("warning: reorder injection produced in-order delivery this run")
	}
	// The resequencer must restore exact order.
	r := NewResequencer[int]()
	var restored []int
	for _, m := range msgs {
		p := m.Payload.(int)
		r.Push(uint64(p>>32), p&(1<<32-1))
		for {
			v, ok := r.Pop()
			if !ok {
				break
			}
			restored = append(restored, v)
		}
	}
	if len(restored) != n {
		t.Fatalf("resequencer delivered %d of %d (pending %d)", len(restored), n, r.Pending())
	}
	for i, v := range restored {
		if v != i {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
}

func TestResequencerDuplicatesAndReset(t *testing.T) {
	r := NewResequencer[string]()
	r.Push(2, "b")
	if _, ok := r.Pop(); ok {
		t.Fatal("gap must block")
	}
	r.Push(1, "a")
	if v, ok := r.Pop(); !ok || v != "a" {
		t.Fatal("pop a")
	}
	r.Push(1, "dup") // stale: already delivered
	if v, ok := r.Pop(); !ok || v != "b" {
		t.Fatalf("pop b, got %q %v", v, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("empty")
	}
	r.Push(5, "x")
	r.Reset()
	if r.Pending() != 0 {
		t.Fatal("reset must drop pending")
	}
	r.Push(1, "fresh")
	if v, ok := r.Pop(); !ok || v != "fresh" {
		t.Fatal("restart at 1 after reset")
	}
}

func TestSequencerPerDestination(t *testing.T) {
	s := NewSequencer()
	if s.Next("x") != 1 || s.Next("x") != 2 || s.Next("y") != 1 {
		t.Fatal("per-destination numbering broken")
	}
	s.Reset()
	if s.Next("x") != 1 {
		t.Fatal("reset must restart numbering")
	}
}

func TestGatekeeperShardAddrs(t *testing.T) {
	if GatekeeperAddr(3) != "gk/3" || ShardAddr(0) != "shard/0" {
		t.Fatal("address format changed")
	}
	// Past the precomputed table the same addresses are built per call.
	for _, i := range []int{knownServers - 1, knownServers, 1000} {
		if GatekeeperAddr(i) != Addr(fmt.Sprintf("gk/%d", i)) || ShardAddr(i) != Addr(fmt.Sprintf("shard/%d", i)) {
			t.Fatalf("address %d: %q, %q", i, GatekeeperAddr(i), ShardAddr(i))
		}
	}
}

package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"weaver/internal/transport"
	"weaver/internal/wire"
)

// barrierTrace is the shared, ordered record of what the members of one
// test cluster saw; a nil trace records nothing.
type barrierTrace struct {
	mu     sync.Mutex
	events []string
}

func (tr *barrierTrace) add(format string, args ...any) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.events = append(tr.events, fmt.Sprintf(format, args...))
	tr.mu.Unlock()
}

func (tr *barrierTrace) snapshot() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]string(nil), tr.events...)
}

// remoteMember is a member as the manager sees one — an address that
// receives epoch changes and acks them, whether a weaverd process or a
// server of the embedded cluster — recording what it saw.
type remoteMember struct {
	ep     transport.Endpoint
	addr   transport.Addr
	stop   chan struct{}
	phases chan wire.EpochChange
	// silent members receive and record but never ack: a server that
	// died mid-barrier.
	silent bool
}

func startRemoteMember(f *transport.Fabric, addr transport.Addr, tr *barrierTrace) *remoteMember {
	r := &remoteMember{
		ep:     f.Endpoint(addr),
		addr:   addr,
		stop:   make(chan struct{}),
		phases: make(chan wire.EpochChange, 16),
	}
	go func() {
		for {
			select {
			case <-r.stop:
				return
			case <-r.ep.Recv():
				for {
					msg, ok := r.ep.Next()
					if !ok {
						break
					}
					ec, ok := msg.Payload.(wire.EpochChange)
					if !ok {
						continue
					}
					tr.add("%s %s %d", addr, phaseName(ec.Phase), ec.Epoch)
					r.phases <- ec
					if !r.silent {
						r.ep.Send(ec.From, wire.EpochAck{Epoch: ec.Epoch, From: r.addr, Phase: ec.Phase})
					}
				}
			}
		}
	}()
	return r
}

func phaseName(p uint8) string {
	if p == wire.EpochPhasePause {
		return "pause"
	}
	return "enter"
}

// The recovery of a dead shard is one wire protocol in one order:
// gatekeepers pause, surviving shards enter the new epoch, the dead shard
// is restarted inside the pause, and only then do gatekeepers enter (and
// resume) — so nothing new-epoch can be sent to an address nobody serves.
// The dead member itself takes no part in the barrier.
func TestRecoverRunsBarrierAndRestart(t *testing.T) {
	f := transport.NewFabric()
	m := New(Config{HeartbeatTimeout: time.Hour}, f.Endpoint(Addr))
	m.Start()
	defer m.Stop()

	tr := &barrierTrace{}
	for _, addr := range []transport.Addr{"gk/0", "shard/0", "shard/1"} {
		defer close(startRemoteMember(f, addr, tr).stop)
	}
	m.Register("gk/0", true, func(uint64) { t.Error("live gatekeeper restarted") })
	m.Register("shard/0", false, func(uint64) { t.Error("live shard restarted") })
	m.Register("shard/1", false, func(e uint64) { tr.add("restart shard/1 %d", e) })

	if err := m.Recover("shard/1"); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 1 || m.Recoveries() != 1 {
		t.Fatalf("epoch = %d, recoveries = %d", m.Epoch(), m.Recoveries())
	}
	want := []string{"gk/0 pause 1", "shard/0 enter 1", "restart shard/1 1", "gk/0 enter 1"}
	if got := tr.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("barrier order:\n got %v\nwant %v", got, want)
	}
	if failed := m.Failed(); len(failed) != 0 {
		t.Fatalf("a member restarted in place stays marked failed: %v", failed)
	}
}

// A member that never acks costs each phase it is part of at most
// BarrierTimeout; the epoch still advances and the restart still runs.
func TestSilentMemberDelaysPhaseByBarrierTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	f := transport.NewFabric()
	m := New(Config{HeartbeatTimeout: time.Hour, BarrierTimeout: timeout}, f.Endpoint(Addr))
	m.Start()
	defer m.Stop()

	gk := startRemoteMember(f, "gk/0", nil)
	defer close(gk.stop)
	wedged := startRemoteMember(f, "shard/0", nil)
	wedged.silent = true
	defer close(wedged.stop)
	restarted := false
	m.Register("gk/0", true, nil)
	m.Register("shard/0", false, nil)
	m.Register("shard/1", false, func(uint64) { restarted = true })

	start := time.Now()
	if err := m.Recover("shard/1"); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if m.Epoch() != 1 || !restarted {
		t.Fatalf("silent member blocked the epoch: epoch=%d restarted=%v", m.Epoch(), restarted)
	}
	// Exactly one phase (Enter, shards) waited out its timeout.
	if took < timeout || took > 10*timeout {
		t.Fatalf("recovery took %v with one silent member and BarrierTimeout %v", took, timeout)
	}
	if ec := <-wedged.phases; ec.Phase != wire.EpochPhaseEnter || ec.Epoch != 1 {
		t.Fatalf("silent shard saw %+v", ec)
	}
}

func TestRecoverUnknownMember(t *testing.T) {
	f := transport.NewFabric()
	m := New(Config{HeartbeatTimeout: time.Hour}, f.Endpoint(Addr))
	m.Start()
	defer m.Stop()
	if err := m.Recover("nope"); err == nil {
		t.Fatal("unknown member must error")
	}
}

func TestHeartbeatsSuppressRecovery(t *testing.T) {
	f := transport.NewFabric()
	m := New(Config{HeartbeatTimeout: 50 * time.Millisecond}, f.Endpoint(Addr))
	m.Start()
	defer m.Stop()
	m.Register("gk/0", true, func(uint64) {})

	// Keep beating: no recovery should trigger.
	beat := f.Endpoint("gk/0")
	for i := 0; i < 15; i++ {
		beat.Send(Addr, wire.Heartbeat{From: "gk/0"})
		time.Sleep(10 * time.Millisecond)
	}
	if m.Recoveries() != 0 {
		t.Fatalf("healthy server recovered %d times", m.Recoveries())
	}
	// Stop beating: the detector fires.
	deadline := time.Now().Add(5 * time.Second)
	for m.Recoveries() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("silent server never recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestEpochsMonotonicAcrossRecoveries(t *testing.T) {
	f := transport.NewFabric()
	m := New(Config{HeartbeatTimeout: time.Hour}, f.Endpoint(Addr))
	m.Start()
	defer m.Stop()
	survivor := startRemoteMember(f, "shard/1", nil)
	defer close(survivor.stop)
	m.Register("shard/0", false, func(uint64) {})
	m.Register("shard/1", false, nil)
	for i := 1; i <= 3; i++ {
		if err := m.Recover("shard/0"); err != nil {
			t.Fatal(err)
		}
		if m.Epoch() != uint64(i) {
			t.Fatalf("epoch after %d recoveries = %d", i, m.Epoch())
		}
		if ec := <-survivor.phases; ec.Epoch != uint64(i) {
			t.Fatalf("survivor entered epoch %d on recovery %d", ec.Epoch, i)
		}
	}
}

package cluster

import (
	"testing"
	"time"

	"weaver/internal/paxos"
	"weaver/internal/remote"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

func sharedAcceptors(n int) []paxos.AcceptorAPI {
	out := make([]paxos.AcceptorAPI, n)
	for i := range out {
		out[i] = paxos.NewAcceptor()
	}
	return out
}

// TestManagerResumesEpochFromDecidedHistory is the tentpole regression:
// a restarted manager over the same acceptor quorum must resume from the
// decided epoch history, not from its locally-seeded StartEpoch.
func TestManagerResumesEpochFromDecidedHistory(t *testing.T) {
	accs := sharedAcceptors(3)
	f := transport.NewFabric()
	m1 := New(Config{HeartbeatTimeout: time.Hour, Acceptors: accs, ProposerID: 0}, f.Endpoint(Addr))
	m1.Register("shard/0", false, func(uint64) {})
	for i := 0; i < 3; i++ {
		if err := m1.Recover("shard/0"); err != nil {
			t.Fatal(err)
		}
	}
	if m1.Epoch() != 3 {
		t.Fatalf("epoch = %d", m1.Epoch())
	}

	// "Restart": a new manager instance, StartEpoch 0, same quorum.
	f2 := transport.NewFabric()
	m2 := New(Config{HeartbeatTimeout: time.Hour, Acceptors: accs, ProposerID: 1}, f2.Endpoint(Addr))
	if m2.Epoch() != 3 {
		t.Fatalf("restarted manager epoch = %d, want 3 (decided history must win over StartEpoch)", m2.Epoch())
	}
	// And its next reconfiguration lands above the history.
	m2.Register("shard/0", false, func(uint64) {})
	if err := m2.Recover("shard/0"); err != nil {
		t.Fatal(err)
	}
	if m2.Epoch() != 4 {
		t.Fatalf("epoch after restart+recover = %d", m2.Epoch())
	}
}

// TestManagerSyncFailsWithoutQuorum: a manager must not fabricate an epoch
// view from a minority of acceptors.
func TestManagerSyncFailsWithoutQuorum(t *testing.T) {
	raw := []*paxos.Acceptor{paxos.NewAcceptor(), paxos.NewAcceptor(), paxos.NewAcceptor()}
	accs := make([]paxos.AcceptorAPI, len(raw))
	for i, a := range raw {
		accs[i] = a
	}
	f := transport.NewFabric()
	m := New(Config{HeartbeatTimeout: time.Hour, Acceptors: accs}, f.Endpoint(Addr))
	raw[0].SetDown(true)
	raw[1].SetDown(true)
	if err := m.SyncFromLog(); err == nil {
		t.Fatal("sync with minority quorum must fail")
	}
}

// TestRemoteAcceptorQuorum drives the manager's epoch log through
// remote.AcceptorClient/Server pairs — the shape a multi-process manager
// group uses — and verifies a second manager recovers the history through
// the same remote quorum.
func TestRemoteAcceptorQuorum(t *testing.T) {
	f := transport.NewFabric()
	var servers []*remote.AcceptorServer
	accs := make([]paxos.AcceptorAPI, 3)
	for i := 0; i < 3; i++ {
		addr := transport.Addr([]string{"pxa/0", "pxa/1", "pxa/2"}[i])
		srv := remote.NewAcceptorServer(f.Endpoint(addr), paxos.NewAcceptor())
		srv.Start()
		defer srv.Stop()
		servers = append(servers, srv)
		accs[i] = remote.NewAcceptorClient(f.Endpoint(transport.Addr("pxc/"+string(rune('0'+i)))), addr, time.Second)
	}
	m := New(Config{HeartbeatTimeout: time.Hour, Acceptors: accs}, f.Endpoint(Addr))
	m.Register("shard/0", false, func(uint64) {})
	if err := m.Recover("shard/0"); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch = %d", m.Epoch())
	}

	accs2 := make([]paxos.AcceptorAPI, 3)
	for i := 0; i < 3; i++ {
		addr := transport.Addr([]string{"pxa/0", "pxa/1", "pxa/2"}[i])
		accs2[i] = remote.NewAcceptorClient(f.Endpoint(transport.Addr("pxc2/"+string(rune('0'+i)))), addr, time.Second)
	}
	f2 := transport.NewFabric()
	m2 := New(Config{HeartbeatTimeout: time.Hour, Acceptors: accs2, ProposerID: 1}, f2.Endpoint(Addr))
	if m2.Epoch() != 1 {
		t.Fatalf("remote-quorum restart epoch = %d, want 1", m2.Epoch())
	}
}

// TestRemoteBarrierCollectsAcks: remote members receive pause/enter in
// order and the barrier completes only through their acks.
func TestRemoteBarrierCollectsAcks(t *testing.T) {
	f := transport.NewFabric()
	m := New(Config{HeartbeatTimeout: time.Hour, BarrierTimeout: 5 * time.Second}, f.Endpoint(Addr))
	m.Start()
	defer m.Stop()

	gk := startRemoteMember(f, "gk/9", nil)
	defer close(gk.stop)
	sh := startRemoteMember(f, "shard/9", nil)
	defer close(sh.stop)
	m.Register("gk/9", true, nil)
	m.Register("shard/9", false, nil)
	m.Register("shard/0", false, func(uint64) {})

	if err := m.Recover("shard/0"); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch = %d", m.Epoch())
	}
	// Gatekeeper saw pause then enter, in that order.
	first := <-gk.phases
	second := <-gk.phases
	if first.Phase != wire.EpochPhasePause || second.Phase != wire.EpochPhaseEnter {
		t.Fatalf("gk phases: %v then %v", first, second)
	}
	shardMsg := <-sh.phases
	if shardMsg.Phase != wire.EpochPhaseEnter || shardMsg.Epoch != 1 {
		t.Fatalf("shard message: %v", shardMsg)
	}
}

// TestRejoinBarrierRealignsStreams: when a failed remote member
// heartbeats again, the manager must run a fresh epoch barrier that the
// rejoined member participates in — without it the survivors' FIFO
// counters and the reborn member's reset streams disagree forever.
func TestRejoinBarrierRealignsStreams(t *testing.T) {
	f := transport.NewFabric()
	m := New(Config{HeartbeatTimeout: time.Hour, BarrierTimeout: 2 * time.Second}, f.Endpoint(Addr))
	m.Start()
	defer m.Stop()
	m.Register("shard/5", false, nil)
	if err := m.Recover("shard/5"); err != nil {
		t.Fatal(err)
	}
	if got := m.Failed(); len(got) != 1 {
		t.Fatalf("failed = %v", got)
	}

	// The process restarts and heartbeats; it must be welcomed back
	// behind a barrier it takes part in.
	sh := startRemoteMember(f, "shard/5", nil)
	defer close(sh.stop)
	sh.ep.Send(Addr, wire.Heartbeat{From: "shard/5"})

	select {
	case ec := <-sh.phases:
		if ec.Phase != wire.EpochPhaseEnter || ec.Epoch != 2 {
			t.Fatalf("rejoin barrier message: %+v, want Enter epoch 2", ec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rejoined member never received the rejoin barrier")
	}
	waitUntil := time.Now().Add(2 * time.Second)
	for m.Epoch() != 2 || len(m.Failed()) != 0 {
		if time.Now().After(waitUntil) {
			t.Fatalf("after rejoin: epoch=%d failed=%v", m.Epoch(), m.Failed())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBootQueryTriggersRejoinInsideDetectionWindow: a member that dies
// and restarts faster than the heartbeat timeout is never declared
// failed, yet its FIFO streams reset all the same. Its boot-time
// EpochQuery (Boot flag) must trigger the rejoin barrier that detection
// never will.
func TestBootQueryTriggersRejoinInsideDetectionWindow(t *testing.T) {
	f := transport.NewFabric()
	m := New(Config{HeartbeatTimeout: time.Hour, BarrierTimeout: 2 * time.Second}, f.Endpoint(Addr))
	m.Start()
	defer m.Stop()
	m.Register("shard/3", false, nil)

	sh := startRemoteMember(f, "shard/3", nil)
	defer close(sh.stop)
	// First boot: never heartbeated, so the boot query must NOT churn
	// the epoch.
	sh.ep.Send(Addr, wire.EpochQuery{ID: 1, From: "shard/3", Boot: true})
	time.Sleep(50 * time.Millisecond)
	if m.Epoch() != 0 {
		t.Fatalf("first-boot query bumped the epoch to %d", m.Epoch())
	}

	// The member lives (heartbeat), then silently restarts inside the
	// detection window and queries again at boot.
	sh.ep.Send(Addr, wire.Heartbeat{From: "shard/3"})
	time.Sleep(20 * time.Millisecond)
	sh.ep.Send(Addr, wire.EpochQuery{ID: 2, From: "shard/3", Boot: true})

	select {
	case ec := <-sh.phases:
		if ec.Phase != wire.EpochPhaseEnter || ec.Epoch != 1 {
			t.Fatalf("restart barrier message: %+v, want Enter epoch 1", ec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast restart never triggered a rejoin barrier")
	}
	waitUntil := time.Now().Add(2 * time.Second)
	for m.Epoch() != 1 {
		if time.Now().After(waitUntil) {
			t.Fatalf("epoch = %d after boot-query rejoin", m.Epoch())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRemoteFailureMarksAndEpochQuery: a dead remote member is marked
// failed (standbys see it via EpochQuery) and un-marked when it beats
// again.
func TestRemoteFailureMarksAndEpochQuery(t *testing.T) {
	f := transport.NewFabric()
	m := New(Config{HeartbeatTimeout: time.Hour, BarrierTimeout: 100 * time.Millisecond}, f.Endpoint(Addr))
	m.Start()
	defer m.Stop()
	m.Register("gk/7", true, nil)
	if err := m.Recover("gk/7"); err != nil {
		t.Fatal(err)
	}
	failed := m.Failed()
	if len(failed) != 1 || failed[0] != "gk/7" {
		t.Fatalf("failed = %v", failed)
	}

	// A standby polls EpochQuery and sees the failure.
	standby := f.Endpoint("standby/0")
	standby.Send(Addr, wire.EpochQuery{ID: 42, From: "standby/0"})
	deadline := time.After(2 * time.Second)
	var info wire.EpochInfo
	for {
		select {
		case <-standby.Recv():
			msg, ok := standby.Next()
			if ok {
				if i, ok2 := msg.Payload.(wire.EpochInfo); ok2 {
					info = i
				}
			}
		case <-deadline:
			t.Fatal("no EpochInfo reply")
		}
		if info.ID == 42 {
			break
		}
	}
	if info.Epoch != 1 || len(info.Failed) != 1 || info.Failed[0] != "gk/7" {
		t.Fatalf("info = %+v", info)
	}

	// Takeover: a process heartbeats as gk/7 → mark clears.
	standby.Send(Addr, wire.Heartbeat{From: "gk/7"})
	waitUntil := time.Now().Add(2 * time.Second)
	for len(m.Failed()) != 0 {
		if time.Now().After(waitUntil) {
			t.Fatalf("failure mark never cleared: %v", m.Failed())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

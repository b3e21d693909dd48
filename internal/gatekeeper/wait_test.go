package gatekeeper

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"weaver/internal/graph"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// blocked reports whether done stays silent for 20 ms.
func blocked(done <-chan error) bool {
	select {
	case <-done:
		return false
	case <-time.After(20 * time.Millisecond):
		return true
	}
}

// TestAdmissionWaitsForApplyAcks drives the apply backlog past maxApplyLag
// against a shard that never acknowledges: the next commit must wait in
// admission control, and one acknowledgement must release it at once, not
// at applyLagTimeout.
func TestAdmissionWaitsForApplyAcks(t *testing.T) {
	r := newRig(t, 1, 1)
	var last CommitResult
	for i := 0; i <= maxApplyLag; i++ {
		res, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: graph.VertexID(fmt.Sprintf("v%d", i))}})
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	if lag := r.gk.ApplyLag(); lag != maxApplyLag+1 {
		t.Fatalf("apply lag %d, want %d", lag, maxApplyLag+1)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "over"}})
		done <- err
	}()
	if !blocked(done) {
		t.Fatal("commit admitted past maxApplyLag unacknowledged write-sets")
	}
	acked := time.Now()
	r.f.Endpoint("fake-shard").Send(transport.GatekeeperAddr(0), wire.TxApplied{TS: last.TS, Count: 1})
	if err := <-done; err != nil {
		t.Fatalf("commit after the ack: %v", err)
	}
	if waited := time.Since(acked); waited >= applyLagTimeout/4 {
		t.Fatalf("commit returned %v after the ack; the ack did not wake it", waited)
	}
}

// TestFenceWakesOnTheEvent holds each fence wait on something outstanding
// and checks that the event that clears it — an ack, an epoch change, a
// read's finish — or Stop ends the wait, with a deadline far away.
func TestFenceWakesOnTheEvent(t *testing.T) {
	type outstanding struct {
		res  CommitResult
		read *pendingRead
	}
	commit := func(t *testing.T, r *rig) outstanding {
		res, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "v"}})
		if err != nil {
			t.Fatal(err)
		}
		return outstanding{res: res}
	}
	read := func(t *testing.T, r *rig) outstanding {
		p := &pendingRead{kind: progRead}
		r.gk.register(p)
		return outstanding{read: p}
	}
	quiesce := func(g *Gatekeeper) error { return g.Quiesce(time.Minute) }
	drain := func(g *Gatekeeper) error { return g.Drain(time.Now().Add(time.Minute)) }
	ack := func(r *rig, o outstanding) {
		r.f.Endpoint("fake-shard").Send(transport.GatekeeperAddr(0), wire.TxApplied{TS: o.res.TS, Count: 1})
	}
	epoch := func(r *rig, _ outstanding) { r.gk.AdvanceEpoch(1) }
	finish := func(r *rig, o outstanding) { r.gk.finish(o.read, nil) }
	stop := func(r *rig, _ outstanding) { r.gk.Stop() }

	for _, tc := range []struct {
		name  string
		setup func(*testing.T, *rig) outstanding
		wait  func(*Gatekeeper) error
		event func(*rig, outstanding)
		want  error
	}{
		{"quiesce/ack", commit, quiesce, ack, nil},
		{"quiesce/epoch", commit, quiesce, epoch, nil},
		{"quiesce/stop", commit, quiesce, stop, ErrStopped},
		{"drain/ack", commit, drain, ack, nil},
		{"drain/finish", read, drain, finish, nil},
		{"drain/stop", commit, drain, stop, ErrStopped},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1, 1)
			o := tc.setup(t, r)
			done := make(chan error, 1)
			go func() { done <- tc.wait(r.gk) }()
			if !blocked(done) {
				t.Fatal("the wait ended with its condition outstanding")
			}
			tc.event(r, o)
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) {
					t.Fatalf("wait returned %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the event did not wake the wait")
			}
		})
	}
}

// TestFenceDeadlineAlreadyPast checks the promise drain relies on when
// one gatekeeper used up the shared deadline: a past deadline still passes
// a gatekeeper with nothing outstanding, and fails one with something
// outstanding at once, naming what.
func TestFenceDeadlineAlreadyPast(t *testing.T) {
	r := newRig(t, 1, 1)
	past := time.Now().Add(-time.Second)
	if err := r.gk.Drain(past); err != nil {
		t.Fatalf("drain of an idle gatekeeper: %v", err)
	}
	if err := r.gk.Quiesce(-time.Second); err != nil {
		t.Fatalf("quiesce of an idle gatekeeper: %v", err)
	}
	p := &pendingRead{kind: progRead}
	r.gk.register(p)
	if err := r.gk.Drain(past); err == nil || !strings.Contains(err.Error(), "1 node programs still running") {
		t.Fatalf("drain with a read running: %v", err)
	}
	if err := r.gk.Quiesce(-time.Second); err != nil {
		t.Fatalf("quiesce waited for a read: %v", err)
	}
	r.gk.finish(p, nil)
	if _, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "v"}}); err != nil {
		t.Fatal(err)
	}
	if err := r.gk.Drain(past); err == nil || !strings.Contains(err.Error(), "quiesce timeout: 1 applies outstanding") {
		t.Fatalf("drain with an apply outstanding: %v", err)
	}
}

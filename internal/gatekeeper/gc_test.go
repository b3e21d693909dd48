package gatekeeper

import (
	"sync"
	"testing"
	"time"

	"weaver/internal/core"
	"weaver/internal/kvstore"
	"weaver/internal/oracle"
	"weaver/internal/partition"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// pruneLog is an oracle that records every prune value.
type pruneLog struct {
	oracle.Client
	mu  sync.Mutex
	wms []core.Timestamp
}

func (p *pruneLog) GC(wm core.Timestamp) error {
	p.mu.Lock()
	p.wms = append(p.wms, wm)
	p.mu.Unlock()
	return p.Client.GC(wm)
}

func (p *pruneLog) pruned() []core.Timestamp {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]core.Timestamp(nil), p.wms...)
}

// gcRig is an unstarted gatekeeper 0 of two gatekeepers and two shards
// whose GC round a test drives by hand; the shards are bare mailboxes.
type gcRig struct {
	t      *testing.T
	gk     *Gatekeeper
	orc    *pruneLog
	shards []transport.Endpoint
}

func newGCRig(t *testing.T, retention time.Duration) *gcRig {
	f := transport.NewFabric()
	r := &gcRig{t: t, orc: &pruneLog{Client: oracle.NewService()}}
	for s := 0; s < 2; s++ {
		r.shards = append(r.shards, f.Endpoint(transport.ShardAddr(s)))
	}
	r.gk = New(Config{ID: 0, NumGatekeepers: 2, NumShards: 2, HistoryRetention: retention},
		f.Endpoint(transport.GatekeeperAddr(0)), kvstore.AsBacking(kvstore.New()), r.orc, partition.NewHash(2))
	return r
}

// report folds gatekeeper gk's report as gatekeeper 0 receives it.
func (r *gcRig) report(gk int, ts, oracleTS core.Timestamp) {
	r.gk.mu.Lock()
	r.gk.foldGCReportLocked(wire.GCReport{GK: gk, TS: ts, OracleTS: oracleTS})
}

// sent returns the watermark every shard received since the last call,
// and false if none was sent. Every shard must receive the same one.
func (r *gcRig) sent() (core.Timestamp, bool) {
	r.t.Helper()
	var got []wire.GCWatermark
	for _, ep := range r.shards {
		for m, ok := ep.Next(); ok; m, ok = ep.Next() {
			if w, ok := m.Payload.(wire.GCWatermark); ok {
				got = append(got, w)
			}
		}
	}
	switch {
	case len(got) == 0:
		return core.Timestamp{}, false
	case len(got) != len(r.shards) || !same(got[0].TS, got[1].TS):
		r.t.Fatalf("shards received %+v, want one equal watermark each", got)
	}
	return got[0].TS, true
}

// same is pointwise equality: a folded watermark is a synthetic vector
// whose owner carries no meaning.
func same(a, b core.Timestamp) bool { return a.PointwiseLE(b) && b.PointwiseLE(a) }

func vc(c ...uint64) core.Timestamp { return core.Timestamp{Clock: c} }

// The watermark sent to the shards is the pointwise minimum of one round:
// the latest report of every gatekeeper since the last round, never a
// round with a gatekeeper missing.
func TestGCRoundSendsPointwiseMin(t *testing.T) {
	r := newGCRig(t, 0)
	r.report(0, vc(5, 9), vc(5, 9))
	if wm, ok := r.sent(); ok {
		t.Fatalf("sent %v before gatekeeper 1 reported", wm)
	}
	r.report(1, vc(8, 3), vc(8, 3))
	if wm, ok := r.sent(); !ok || !same(wm, vc(5, 3)) {
		t.Fatalf("sent %v (%v), want the pointwise min [5 3]", wm, ok)
	}
	// A new round: gatekeeper 1 twice, then gatekeeper 0. Its latest
	// report counts.
	r.report(1, vc(9, 4), vc(9, 4))
	r.report(1, vc(9, 6), vc(9, 6))
	if wm, ok := r.sent(); ok {
		t.Fatalf("sent %v on a round without gatekeeper 0", wm)
	}
	r.report(0, vc(7, 10), vc(7, 10))
	if wm, ok := r.sent(); !ok || !same(wm, vc(7, 6)) {
		t.Fatalf("sent %v (%v), want [7 6]", wm, ok)
	}
}

// With HistoryRetention the rounds send a zero watermark, which collects
// nothing, until a folded value is that old; then a value at least that
// old. Round k folds [k k], so a watermark names the round it came from.
func TestGCRoundHoldsForRetention(t *testing.T) {
	const retention = 50 * time.Millisecond
	r := newGCRig(t, retention)
	var started []time.Time
	for k := uint64(0); ; k++ {
		started = append(started, time.Now())
		r.report(0, vc(k, k), vc(k, k))
		r.report(1, vc(k, k), vc(k, k))
		wm, ok := r.sent()
		if !ok {
			t.Fatalf("round %d sent nothing", k)
		}
		if !wm.Zero() {
			if age := time.Since(started[wm.Clock[0]]); age < retention {
				t.Fatalf("round %d sent %v, folded only %v ago", k, wm, age)
			}
			return
		}
		if time.Since(started[0]) > 5*time.Second {
			t.Fatal("no round ever aged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A round that folds lower than the last one — a historical read or a pin
// below it — does not move the watermark back, and neither does one that
// is pointwise incomparable.
func TestGCRoundNeverMovesBack(t *testing.T) {
	r := newGCRig(t, 0)
	for _, c := range []struct{ fold, want core.Timestamp }{
		{vc(6, 6), vc(6, 6)},
		{vc(4, 6), vc(6, 6)},
		{vc(9, 5), vc(6, 6)},
		{vc(7, 8), vc(7, 8)},
	} {
		r.report(0, c.fold, c.fold)
		r.report(1, vc(10, 10), vc(10, 10))
		if wm, ok := r.sent(); !ok || !same(wm, c.want) {
			t.Fatalf("a round folding %v sent %v (%v), want %v", c.fold, wm, ok, c.want)
		}
	}
}

// The oracle is pruned once every shard has answered a round with a
// non-zero bound, at the minimum of the round's OracleTS and the bounds:
// pins (TS) and the retention window do not hold it.
func TestGCRoundPrunesOracleAtShardBounds(t *testing.T) {
	r := newGCRig(t, time.Hour)
	answer := func(shard int, ts core.Timestamp) {
		r.gk.handleShardGCReport(wire.ShardGCReport{Shard: shard, TS: ts})
	}
	r.report(0, vc(1, 1), vc(8, 9)) // a pin at [1 1]
	r.report(1, vc(9, 9), vc(9, 7))
	if wm, ok := r.sent(); !ok || !wm.Zero() {
		t.Fatalf("sent %v (%v) inside the retention window, want a zero watermark", wm, ok)
	}
	answer(0, vc(9, 9))
	answer(1, core.Timestamp{})
	if p := r.orc.pruned(); len(p) != 0 {
		t.Fatalf("oracle pruned at %v while shard 1's bound is zero", p)
	}
	answer(0, vc(9, 9))
	if p := r.orc.pruned(); len(p) != 0 {
		t.Fatalf("oracle pruned at %v before shard 1 answered again", p)
	}
	answer(1, vc(6, 9))
	if p := r.orc.pruned(); len(p) != 1 || !same(p[0], vc(6, 7)) {
		t.Fatalf("oracle pruned at %v, want once at [6 7]", p)
	}
}

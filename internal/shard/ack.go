package shard

import (
	"weaver/internal/core"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// ackSet accumulates apply acknowledgements per owning gatekeeper across
// one event-loop drain, so the hot path pays one counted TxApplied per
// (drain, gatekeeper) rather than one per transaction — acks are counted,
// not sequenced, so coalescing loses nothing. All queued traffic shares
// one epoch (epoch changes happen at full-drain barriers), so any member
// timestamp carries the right epoch for the owner's epoch-scoped
// accounting.
type ackSet map[int]ownerAck

type ownerAck struct {
	ts core.Timestamp
	n  int
}

func (a *ackSet) add(ts core.Timestamp) {
	if *a == nil {
		*a = make(ackSet, 2)
	}
	oa := (*a)[ts.Owner]
	oa.ts, oa.n = ts, oa.n+1
	(*a)[ts.Owner] = oa
}

func (a ackSet) flush(s *Shard) {
	for owner, oa := range a {
		s.ep.Send(transport.GatekeeperAddr(owner), wire.TxApplied{TS: oa.ts, Shard: s.cfg.ID, Count: oa.n})
	}
}

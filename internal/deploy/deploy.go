// Package deploy is the one place a deployment's settings become servers.
// It has two callers: weaver.Open builds every role on an in-process
// transport.Fabric, with local store and oracle handles and restart
// callbacks; cmd/weaverd builds one role on a transport.TCPNode, with
// remote clients. A setting a server consumes is spelled once on each side
// (a weaver.Config field, a weaverd flag) and mapped to a server Config here.
package deploy

import (
	"sync"
	"time"

	"weaver/internal/cluster"
	"weaver/internal/gatekeeper"
	"weaver/internal/index"
	"weaver/internal/kvstore"
	"weaver/internal/nodeprog"
	"weaver/internal/obs"
	"weaver/internal/oracle"
	"weaver/internal/partition"
	"weaver/internal/paxos"
	"weaver/internal/shard"
	"weaver/internal/transport"
)

// Spec holds the settings every process of one deployment must agree on;
// the fields are documented on weaver.Config, which converts to it.
type Spec struct {
	Gatekeepers, Shards int

	AnnouncePeriod   time.Duration
	NopPeriod        time.Duration
	GCPeriod         time.Duration
	HistoryRetention time.Duration
	HeartbeatTimeout time.Duration
	ProgTimeout      time.Duration

	MaxShardVertices int
	Indexes          []index.Spec

	WALPath string
}

// NewStore opens the backing store (durable under WALPath) and the
// deployment's one timeline oracle, and registers their instruments in o.
// The oracle's DAG lives in memory only: it is not logged to the WAL.
func (s Spec) NewStore(o *obs.Registry) (*kvstore.Store, *oracle.Service, error) {
	var st *kvstore.Store
	if s.WALPath != "" {
		var err error
		if st, err = kvstore.NewDurable(s.WALPath); err != nil {
			return nil, nil, err
		}
		st.InstrumentWAL(
			o.LatencyHistogram("weaver_wal_fsync_seconds"),
			o.SizeHistogram("weaver_wal_group_commit_txns"),
		)
	} else {
		st = kvstore.New()
	}
	orc := oracle.NewService()
	// Read at scrape time. A deployment whose gatekeepers run no GC loop
	// shows here as events growing without bound.
	o.GaugeFunc("weaver_oracle_events", func() int64 { return int64(orc.Stats().Events) })
	o.GaugeFunc("weaver_oracle_gc_collected", func() int64 { return int64(orc.Stats().GCCollected) })
	return st, orc, nil
}

// NewShard constructs (without recovering or starting) shard i on ep.
func (s Spec) NewShard(i int, epoch uint64, ep transport.Endpoint, kv kvstore.Backing, orc oracle.Client,
	reg *nodeprog.Registry, dir partition.Directory, o *obs.Registry) *shard.Shard {
	return shard.New(shard.Config{
		ID:              i,
		NumGatekeepers:  s.Gatekeepers,
		Epoch:           epoch,
		HeartbeatPeriod: cluster.BeatPeriod(s.HeartbeatTimeout),
		MaxVertices:     s.MaxShardVertices,
		Indexes:         s.Indexes,
		Obs:             o,
	}, ep, kv, orc, reg, dir)
}

// NewGatekeeper constructs (without starting) gatekeeper i on ep.
func (s Spec) NewGatekeeper(i int, epoch uint64, ep transport.Endpoint, kv kvstore.Backing, orc oracle.Client,
	dir partition.Directory, o *obs.Registry) *gatekeeper.Gatekeeper {
	indexed := make([]string, len(s.Indexes))
	for k, sp := range s.Indexes {
		indexed[k] = sp.Key
	}
	return gatekeeper.New(gatekeeper.Config{
		ID:               i,
		NumGatekeepers:   s.Gatekeepers,
		NumShards:        s.Shards,
		Epoch:            epoch,
		AnnouncePeriod:   s.AnnouncePeriod,
		NopPeriod:        s.NopPeriod,
		GCPeriod:         s.GCPeriod,
		HistoryRetention: s.HistoryRetention,
		ProgTimeout:      s.ProgTimeout,
		HeartbeatPeriod:  cluster.BeatPeriod(s.HeartbeatTimeout),
		IndexedKeys:      indexed,
		Obs:              o,
	}, ep, kv, orc, dir)
}

// NewManager constructs (without starting) the cluster manager on ep, as
// proposer id over accs (nil = three in-process acceptors), with every
// shard and gatekeeper registered. restart rebirths a dead member in this
// process, inside the barrier, under lock; nil means the members are other
// processes, whose acks — a shard's after a store scan — cross TCP.
func (s Spec) NewManager(id int, epoch uint64, ep transport.Endpoint, accs []paxos.AcceptorAPI,
	lock sync.Locker, restart func(isGK bool, i int, epoch uint64)) *cluster.Manager {
	cfg := cluster.Config{
		HeartbeatTimeout: s.HeartbeatTimeout,
		StartEpoch:       epoch,
		Acceptors:        accs,
		ProposerID:       id,
		ReconfigLock:     lock,
	}
	if restart == nil {
		cfg.BarrierTimeout = 5 * time.Second
	}
	m := cluster.New(cfg, ep)
	register := func(isGK bool, n int, addr func(int) transport.Addr) {
		for i := 0; i < n; i++ {
			var reborn func(uint64)
			if restart != nil {
				reborn = func(epoch uint64) { restart(isGK, i, epoch) }
			}
			m.Register(addr(i), isGK, reborn)
		}
	}
	register(false, s.Shards, transport.ShardAddr)
	register(true, s.Gatekeepers, transport.GatekeeperAddr)
	return m
}

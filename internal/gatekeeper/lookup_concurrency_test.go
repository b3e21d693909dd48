package gatekeeper

import (
	"strings"
	"testing"
	"time"

	"weaver/internal/core"
	"weaver/internal/kvstore"
	"weaver/internal/oracle"
	"weaver/internal/partition"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// slowShardEndpoint delays every send to a shard address — a stand-in for
// a backpressured or high-latency transport, which the in-process fabric's
// never-blocking Send cannot model.
type slowShardEndpoint struct {
	transport.Endpoint
	delay time.Duration
}

func (s *slowShardEndpoint) Send(to transport.Addr, payload any) error {
	if strings.HasPrefix(string(to), "shard/") {
		time.Sleep(s.delay)
	}
	return s.Endpoint.Send(to, payload)
}

// TestLookupScatterSendsConcurrently pins the fan-out fix: scatter sends
// go out on one goroutine per shard, so a round's issuance latency is the
// slowest single send rather than the sum of all of them. The sequential
// version of this code holds the pause read lock for shards×delay — with
// four shards at 40ms each, ~160ms versus ~40ms concurrent; the 120ms
// bound fails the sequential shape with margin on both sides.
func TestLookupScatterSendsConcurrently(t *testing.T) {
	const (
		shards = 4
		delay  = 40 * time.Millisecond
	)
	f := transport.NewFabric()
	kv := kvstore.New()
	orc := oracle.NewService()

	// Responder per shard: answer every IndexLookup with an empty result so
	// the gather completes without real shard servers.
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	for i := 0; i < shards; i++ {
		ep := f.Endpoint(transport.ShardAddr(i))
		go func(i int, ep transport.Endpoint) {
			for {
				select {
				case <-stop:
					return
				case <-ep.Recv():
				}
				for {
					msg, ok := ep.Next()
					if !ok {
						break
					}
					if m, isLookup := msg.Payload.(wire.IndexLookup); isLookup {
						ep.Send(m.Reply, wire.IndexResult{QID: m.QID, Shard: i, Trace: m.Trace})
					}
				}
			}
		}(i, ep)
	}

	gk := New(Config{
		ID: 0, NumGatekeepers: 1, NumShards: shards,
		AnnouncePeriod: 200 * time.Microsecond,
		NopPeriod:      100 * time.Microsecond,
	}, &slowShardEndpoint{Endpoint: f.Endpoint(transport.GatekeeperAddr(0)), delay: delay},
		kvstore.AsBacking(kv), orc, partition.NewHash(shards))
	gk.Start()
	t.Cleanup(gk.Stop)

	start := time.Now()
	if _, _, err := gk.Lookup(core.Timestamp{}, LookupOptions{Wheres: wire.Eq("k", "v")}); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed >= shards*delay*3/4 {
		t.Fatalf("scatter took %v for %d shards at %v per send — sends look sequential", elapsed, shards, delay)
	}
}

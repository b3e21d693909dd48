package wire

import (
	"math/rand"
	"reflect"
	"testing"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/workload"
)

// FuzzDecodePayload feeds arbitrary tagged bodies to the wire payload
// codec: it must never panic or over-allocate (counts are bounded by
// remaining bytes), only return a message or an error; a successful
// decode must re-encode and re-decode to the same message. The corpus is
// seeded with every real message shape plus randomized encodings derived
// from the repo-standard seed (WEAVER_TEST_SEED replays them).
func FuzzDecodePayload(f *testing.F) {
	var c frameCodec
	for _, msg := range sampleMessages() {
		buf, _ := c.Append(nil, msg)
		f.Add(buf)
	}
	r := rand.New(rand.NewSource(workload.TestSeed(f)))
	for i := 0; i < 16; i++ {
		buf, _ := c.Append(nil, randomMessage(r))
		if r.Intn(2) == 0 && len(buf) > 2 {
			buf[1+r.Intn(len(buf)-1)] ^= byte(1 << r.Intn(8)) // bit flip past the tag
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{tagTxForward})
	// The GC round's messages: empty bodies and a clock width past the end.
	for _, tag := range []byte{tagGCReport, tagShardGCReport, tagGCWatermark} {
		f.Add([]byte{tag})
	}
	f.Add([]byte{tagGCReport, 0, 0, 0, 0x7F})
	f.Add([]byte{tagShardGCReport, 0, 0, 0, 0x7F})
	f.Add([]byte{tagGCWatermark, 0, 0, 0x7F})
	for tag := tagEpochChange; tag <= tagIndexResult; tag++ {
		f.Add([]byte{tag})                                // empty body
		f.Add([]byte{tag, 1, 0xFF, 0xFF, 0xFF, 0xFF, 10}) // oversized count / length
	}
	for _, tag := range []byte{0, 5, 9, 10, 18} { // retired tags
		f.Add([]byte{tag, 1, 2})
	}
	f.Add([]byte{tagProgHops, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := frameCodec{}.Decode(append([]byte{}, data...))
		if err != nil {
			return
		}
		buf, ok := frameCodec{}.Append(nil, v)
		if !ok {
			t.Fatalf("decoded %T has no encoder", v)
		}
		again, err := frameCodec{}.Decode(buf)
		if err != nil {
			t.Fatalf("re-decode of re-encoded %T failed: %v", v, err)
		}
		if !reflect.DeepEqual(normalizeMsg(v), normalizeMsg(again)) {
			t.Fatalf("decode∘encode not a fixed point for %T:\n%#v\nvs\n%#v", v, v, again)
		}
	})
}

// randomMessage builds one random high-traffic message.
func randomMessage(r *rand.Rand) any {
	rs := func(n int) string {
		b := make([]byte, r.Intn(n))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	}
	rts := func() core.Timestamp {
		clk := make([]uint64, r.Intn(4))
		for i := range clk {
			clk[i] = r.Uint64() >> (r.Intn(60) + 1)
		}
		return core.Timestamp{Epoch: uint64(r.Intn(5)), Owner: r.Intn(3), Clock: clk}
	}
	// Half the traceable messages carry a random trace ID so the optional
	// trailing field (absent when zero) is fuzzed in both states.
	rtrace := func() uint64 {
		if r.Intn(2) == 0 {
			return 0
		}
		return r.Uint64()
	}
	switch r.Intn(5) {
	case 0:
		ops := make([]graph.Op, r.Intn(5))
		for i := range ops {
			ops[i] = graph.Op{Kind: graph.OpKind(r.Intn(8)), Vertex: graph.VertexID(rs(12)),
				Edge: graph.EdgeID(rs(8)), To: graph.VertexID(rs(12)), Key: rs(6), Value: rs(20)}
		}
		return TxForward{TS: rts(), Seq: r.Uint64(), Ops: ops, Trace: rtrace()}
	case 1:
		hops := make([]Hop, r.Intn(4))
		for i := range hops {
			hops[i] = Hop{ID: r.Uint64(), Vertex: graph.VertexID(rs(10)), Program: rs(8),
				Params: []byte(rs(16)), Origin: r.Intn(5) - 1}
		}
		return ProgHops{QID: rts().ID(), TS: rts(), ReadTS: rts(), Solicited: r.Intn(2) == 0,
			Coordinator: "gk/0", Hops: hops, Trace: rtrace()}
	case 2:
		return ProgDelta{QID: rts().ID(), ConsumedIDs: []uint64{r.Uint64()},
			SpawnedIDs: []uint64{r.Uint64(), r.Uint64()}, Results: [][]byte{[]byte(rs(30))},
			Err: rs(10), ErrCode: r.Intn(3), Trace: rtrace()}
	case 3:
		m := IndexLookup{QID: rts().ID(), ReadTS: rts(), Limit: r.Intn(20), Reply: "gk/1", Trace: rtrace()}
		for i := 0; i < 1+r.Intn(3); i++ {
			m.Wheres = append(m.Wheres, Where{Key: rs(6), Op: byte(r.Intn(5)), Value: rs(8)})
		}
		return m
	default:
		return KVResp{ID: r.Uint64(), Value: []byte(rs(40)), Version: r.Uint64(), OK: true,
			Keys: []string{rs(8)}, Vals: [][]byte{[]byte(rs(8))}}
	}
}

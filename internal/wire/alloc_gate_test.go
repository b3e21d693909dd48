package wire

import (
	"fmt"
	"testing"

	"weaver/internal/graph"
	"weaver/internal/transport"
)

// Allocation-regression gate for the hot wire path. The thresholds below
// are checked in deliberately: they are the contract CI enforces so a
// refactor cannot quietly reintroduce per-message garbage on the
// commit and program-hop paths. Raising one requires editing this file —
// i.e. an explicit, reviewed decision.
//
// Encoding into a reused buffer must be allocation-free: steady-state
// senders recycle frame buffers through a pool, so every encode alloc
// would be pure per-message garbage at cluster throughput.
const (
	maxEncodeAllocs = 0 // per message, reused buffer: commit + prog-hop encode

	// The full frame path passes the payload through `any` and the
	// FrameCodec interface, so the value escapes and is boxed once — an
	// API-boundary cost, not buffer garbage. Gate it at its exact value.
	maxFrameEncodeAllocs = 2

	// Decode materializes the message value (interface boxing, slices,
	// strings copied out of the connection's reused read buffer), so it
	// cannot be zero; the bounds have ~2x headroom over measured values.
	maxDecodeTxAllocs  = 32 // TxForward, 4-op transaction
	maxDecodeHopAllocs = 24 // ProgHops, 2-hop batch

	// The envelope between known addresses (gk/i, shard/i, the role
	// names) decodes to the shared precomputed addresses: a frame costs
	// exactly what its payload does.
	maxEnvelopeDecodeAllocs = 0
)

func gateTxForward() TxForward {
	return TxForward{TS: ts(2, 1, 7, 9), Seq: 42, Ops: []graph.Op{
		{Kind: graph.OpCreateVertex, Vertex: "user/1"},
		{Kind: graph.OpCreateEdge, Vertex: "user/1", Edge: "e0.gk0.5#0", To: "user/2"},
		{Kind: graph.OpSetEdgeProp, Vertex: "user/1", Edge: "e0.gk0.5#0", Key: "kind", Value: "follows"},
		{Kind: graph.OpSetVertexProp, Vertex: "user/2", Key: "city", Value: "ithaca"},
	}}
}

func gateProgHops() ProgHops {
	return ProgHops{QID: ts(1, 0, 5, 3).ID(), TS: ts(1, 0, 5, 3), ReadTS: ts(1, 0, 2, 1),
		Coordinator: "gk/0", Hops: []Hop{
			{ID: 1, Vertex: "user/1", Program: "bfs", Params: []byte("p"), Origin: -1},
			{ID: 2, Vertex: "user/2", Program: "bfs", Origin: 1},
		}}
}

func gateAllocs(t *testing.T, name string, max float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, fn); got > max {
		t.Errorf("%s: %.1f allocs/op, gate is %.0f — the hot wire path regressed", name, got, max)
	}
}

func TestAllocGateEncode(t *testing.T) {
	var c frameCodec
	tx, hops := gateTxForward(), gateProgHops()
	txApplied := TxApplied{TS: ts(1, 1, 4, 4), Shard: 3, Count: 17}
	delta := ProgDelta{QID: ts(1, 0, 5, 3).ID(), ConsumedIDs: []uint64{1, 2},
		SpawnedIDs: []uint64{9}, Results: [][]byte{[]byte("r")}}
	buf := make([]byte, 0, 4096)
	gateAllocs(t, "encode TxForward", maxEncodeAllocs, func() {
		buf, _ = c.Append(buf[:0], tx)
	})
	gateAllocs(t, "encode TxApplied", maxEncodeAllocs, func() {
		buf, _ = c.Append(buf[:0], txApplied)
	})
	gateAllocs(t, "encode ProgHops", maxEncodeAllocs, func() {
		buf, _ = c.Append(buf[:0], hops)
	})
	gateAllocs(t, "encode ProgDelta", maxEncodeAllocs, func() {
		buf, _ = c.Append(buf[:0], delta)
	})
}

// TestAllocGateFrameEncode covers the full frame (envelope + tag + CRC)
// as written to a connection, still with a reused buffer.
func TestAllocGateFrameEncode(t *testing.T) {
	tx := gateTxForward()
	buf := make([]byte, 0, 4096)
	var err error
	gateAllocs(t, "frame encode TxForward", maxFrameEncodeAllocs, func() {
		buf, err = transport.AppendFrame(buf[:0], "gk/0", "shard/1", tx)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllocGateDecode(t *testing.T) {
	var c frameCodec
	txBuf, _ := c.Append(nil, gateTxForward())
	hopBuf, _ := c.Append(nil, gateProgHops())
	gateAllocs(t, "decode TxForward", maxDecodeTxAllocs, func() {
		if _, err := c.Decode(txBuf); err != nil {
			t.Fatal(err)
		}
	})
	gateAllocs(t, "decode ProgHops", maxDecodeHopAllocs, func() {
		if _, err := c.Decode(hopBuf); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocGateFrameDecode: decoding a whole frame between known addresses
// allocates no more than decoding its payload alone — and a payload address
// that is known (ProgHops.Coordinator) costs nothing either.
func TestAllocGateFrameDecode(t *testing.T) {
	var c frameCodec
	for _, payload := range []any{gateProgHops(), gateTxForward(), ProgFinish{QID: ts(1, 0, 5, 3).ID()}} {
		frame, err := transport.AppendFrame(nil, "gk/0", "shard/1", payload)
		if err != nil {
			t.Fatal(err)
		}
		tagged, _ := c.Append(nil, payload)
		bare := testing.AllocsPerRun(200, func() { _, _ = c.Decode(tagged) })
		whole := testing.AllocsPerRun(200, func() { _, _, _, _ = transport.DecodeFrame(frame[4:]) })
		if whole-bare > maxEnvelopeDecodeAllocs {
			t.Errorf("frame decode %T: %.1f allocs, payload alone %.1f: the envelope allocates (gate %d)",
				payload, whole, bare, maxEnvelopeDecodeAllocs)
		}
	}
	known, unknown := gateProgHops(), gateProgHops()
	unknown.Coordinator = "client/9"
	kb, _ := c.Append(nil, known)
	ub, _ := c.Append(nil, unknown)
	k := testing.AllocsPerRun(200, func() { _, _ = c.Decode(kb) })
	u := testing.AllocsPerRun(200, func() { _, _ = c.Decode(ub) })
	if u-k != 1 {
		t.Errorf("ProgHops decode: %.1f allocs with a known coordinator, %.1f with an unknown one: want exactly one fewer", k, u)
	}
}

// TestAllocGateDeltaResults: a ProgDelta's results decode into one copy, so
// a traversal's delta with 64 results costs what one with a single result
// does. Each result is its own capacity-capped slice of that copy (an
// append to one never reaches the next) and an empty result is nil.
func TestAllocGateDeltaResults(t *testing.T) {
	var c frameCodec
	delta := func(n int) ProgDelta {
		d := ProgDelta{QID: ts(1, 0, 5, 3).ID(), ConsumedIDs: []uint64{1}}
		for i := 0; i < n; i++ {
			d.Results = append(d.Results, []byte(fmt.Sprintf("user/%d", i)))
		}
		return d
	}
	one, _ := c.Append(nil, delta(1))
	many, _ := c.Append(nil, delta(64))
	a := testing.AllocsPerRun(200, func() { _, _ = c.Decode(one) })
	b := testing.AllocsPerRun(200, func() { _, _ = c.Decode(many) })
	if a != b {
		t.Errorf("ProgDelta decode: %.1f allocs with 1 result, %.1f with 64: results should decode into one copy", a, b)
	}

	mixed := ProgDelta{Results: [][]byte{[]byte("ab"), {}, []byte("cd"), nil, []byte("ef")}}
	buf, _ := c.Append(nil, mixed)
	v, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(ProgDelta).Results
	if len(got) != 5 || got[1] != nil || got[3] != nil {
		t.Fatalf("decoded results %q: want 5, empty ones nil", got)
	}
	got[0][1] = 'X'
	got[0] = append(got[0], "YY"...)
	if string(got[0]) != "aXYY" || string(got[2]) != "cd" || string(got[4]) != "ef" {
		t.Fatalf("mutating one decoded result reached its neighbours: %q", got)
	}
}
